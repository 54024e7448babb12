package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCSV drives the real CLI path with the given extra flags and returns the
// CSV bytes it wrote.
func runCSV(t *testing.T, extra ...string) []byte {
	t.Helper()
	csv := filepath.Join(t.TempDir(), "out.csv")
	args := append([]string{
		"-experiments", "fig2a,fig13a",
		"-rates", "20,60",
		"-repeats", "2",
		"-flows", "60",
		"-csv", csv,
	}, extra...)
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

// runScenarioCSV drives the -scenario CLI path and returns the CSV bytes.
func runScenarioCSV(t *testing.T, scenario string, extra ...string) []byte {
	t.Helper()
	return runQuickCSV(t, append([]string{"-scenario", scenario}, extra...)...)
}

// runQuickCSV drives a -quick run (the 16-figure sweep unless args pick a
// scenario) and returns the CSV bytes.
func runQuickCSV(t *testing.T, extra ...string) []byte {
	t.Helper()
	csv := filepath.Join(t.TempDir(), "out.csv")
	args := append([]string{"-quick", "-csv", csv}, extra...)
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

// quickDigests reads testdata/quick.sha256 (sha256sum format) into a map
// from file name to hex digest.
func quickDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "quick.sha256"))
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
// sweep and every -scenario sweep: the -quick CSV must be byte-identical at
// -parallel 1 and 4 (outage ignores -parallel, so this runs it twice), start
// with the sweep's header, and hash to the digest pinned in
// testdata/quick.sha256. A change that moves any figure or scenario byte
// fails here; regenerate the digests only for an intended model change.
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
	digests := quickDigests(t)
	if len(digests) != len(scenarios)+1 {
		t.Errorf("%d digests pinned for %d scenarios and the figures", len(digests), len(scenarios))
	}
	check := func(t *testing.T, name, header string, csv func(...string) []byte) {
		serial := csv("-parallel", "1")
		parallel := csv("-parallel", "4")
		if !bytes.Equal(serial, parallel) {
			t.Errorf("CSV differs serial vs parallel:\n%s\nvs\n%s", serial, parallel)
		}
		if !strings.HasPrefix(string(serial), header) {
			t.Errorf("CSV header %q missing: %q", header, string(serial[:min(len(serial), 40)]))
		}
		want, ok := digests[name+".csv"]
		if !ok {
			t.Fatalf("no digest pinned for %s.csv", name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(serial)); got != want {
			t.Errorf("%s.csv sha256 = %s, pinned %s", name, got, want)
		}
	}
	t.Run("figures", func(t *testing.T) {
		check(t, "figs", "experiment,series,", func(extra ...string) []byte {
			return runQuickCSV(t, extra...)
		})
	})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			header, ok := headers[sc.name]
			if !ok {
				t.Fatalf("no header pinned for scenario %q", sc.name)
			}
			check(t, sc.name, header, func(extra ...string) []byte {
				return runScenarioCSV(t, sc.name, extra...)
			})
		})
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown scenario: exit %d, want 2", code)
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
