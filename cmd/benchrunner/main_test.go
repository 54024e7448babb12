package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runCSV drives the real CLI path over a small figure sweep with the given
// extra flags and returns the CSV bytes it wrote.
func runCSV(t *testing.T, extra ...string) []byte {
	t.Helper()
	return runArgsCSV(t, append([]string{
		"-experiments", "fig2a,fig13a",
		"-rates", "20,60",
		"-repeats", "2",
		"-flows", "60",
	}, extra...)...)
}

// TestCSVDeterminism is the regression gate for the parallel runner's
// determinism guarantee: the same seed must produce byte-identical CSV
// whether the sweep runs twice, serially, or on four workers.
func TestCSVDeterminism(t *testing.T) {
	serial := runCSV(t, "-parallel", "1")
	parallel := runCSV(t, "-parallel", "4")
	again := runCSV(t, "-parallel", "4")
	if !bytes.Equal(serial, parallel) {
		t.Errorf("CSV differs serial vs parallel:\n%s\nvs\n%s", serial, parallel)
	}
	if !bytes.Equal(parallel, again) {
		t.Errorf("CSV differs across identical parallel runs:\n%s\nvs\n%s", parallel, again)
	}
	if !strings.HasPrefix(string(serial), "experiment,series,") {
		t.Errorf("CSV header missing: %q", string(serial[:40]))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiments", "fig99"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
	if code := run([]string{"-rates", "abc"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad rate: exit %d, want 2", code)
	}
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// runArgsCSV drives the CLI with args and -csv, and returns the CSV bytes.
func runArgsCSV(t *testing.T, args ...string) []byte {
	t.Helper()
	csv := filepath.Join(t.TempDir(), "out.csv")
	args = append(args, "-csv", csv)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty CSV output")
	}
	return b
}

// pinnedDigests reads a sha256sum-format file under testdata into a map
// from file name to hex digest.
func pinnedDigests(t *testing.T, file string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		digests[name] = sum
	}
	return digests
}

// TestScenarioCSVDeterminism is the byte-identity fence over the 16-figure
// sweep and every -scenario sweep. Each scenario runs twice over: its
// -quick grid and its default (full) grid, the fabric's with the
// 1024-switch scale row. Every CSV must be byte-identical at -parallel 1
// and 8, start with the sweep's header, and hash to the digest pinned in
// testdata/quick.sha256 or testdata/full.sha256; the figures run -quick
// only. Every full-grid table-management row must also close its rule
// ledger. A change that moves any figure or scenario byte fails here;
// regenerate the digests only for an intended model change.
func TestScenarioCSVDeterminism(t *testing.T) {
	headers := map[string]string{
		"resilience":    "series,loss_rate,",
		"outage":        "series,fail_mode,",
		"delay-decomp":  "series,rate_mbps,stage,",
		"fabric":        "topo,switches,hops,",
		"survivability": "topo,scenario,switches,",
		"tablemgmt":     "topo,capacity,policy,",
	}
	if len(headers) != len(scenarios) {
		t.Errorf("%d headers pinned for %d scenarios", len(headers), len(scenarios))
	}
	quick, full := pinnedDigests(t, "quick.sha256"), pinnedDigests(t, "full.sha256")
	if len(quick) != len(scenarios)+1 || len(full) != len(scenarios) {
		t.Errorf("%d quick and %d full digests pinned for %d scenarios and the figures",
			len(quick), len(full), len(scenarios))
	}
	check := func(t *testing.T, digests map[string]string, name, header string, args ...string) []byte {
		t.Helper()
		serial := runArgsCSV(t, slices.Concat(args, []string{"-parallel", "1"})...)
		parallel := runArgsCSV(t, slices.Concat(args, []string{"-parallel", "8"})...)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%v: CSV differs serial vs parallel:\n%s\nvs\n%s", args, serial, parallel)
		}
		if !strings.HasPrefix(string(serial), header) {
			t.Errorf("%v: CSV header %q missing: %q", args, header, string(serial[:min(len(serial), 40)]))
		}
		want, ok := digests[name+".csv"]
		if !ok {
			t.Fatalf("%v: no digest pinned for %s.csv", args, name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(serial)); got != want {
			t.Errorf("%v: %s.csv sha256 = %s, pinned %s", args, name, got, want)
		}
		return serial
	}
	t.Run("figures", func(t *testing.T) {
		check(t, quick, "figs", "experiment,series,", "-quick")
	})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			header, ok := headers[sc.name]
			if !ok {
				t.Fatalf("no header pinned for scenario %q", sc.name)
			}
			check(t, quick, sc.name, header, "-scenario", sc.name, "-quick")
			csv := check(t, full, sc.name, header, "-scenario", sc.name)
			if sc.name == "tablemgmt" {
				checkClosedLedgers(t, csv)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown scenario: exit %d, want 2", code)
	}
}

// checkClosedLedgers requires ledger_gap == 0 in every table-management row:
// installed == active + removed by reason + rejected + cleared.
func checkClosedLedgers(t *testing.T, raw []byte) {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(rows[0], "ledger_gap")
	if col < 0 {
		t.Fatalf("no ledger_gap column in %q", rows[0])
	}
	for _, row := range rows[1:] {
		if row[col] != "0" {
			t.Errorf("open rule ledger: %q", row)
		}
	}
}

// TestTraceExport drives -trace/-flowcsv and checks both artifacts parse.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	flowPath := filepath.Join(dir, "flows.csv")
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-trace", tracePath, "-flowcsv", flowPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.DisplayTimeUnit != "ms" {
		t.Errorf("trace shape: %d events, unit %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
	flows, err := os.ReadFile(flowPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(flows)), "\n")
	if !strings.HasPrefix(lines[0], "src_ip,dst_ip,") {
		t.Errorf("flow CSV header: %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("flow CSV has no data rows")
	}
}
