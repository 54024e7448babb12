package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestManifestMatchesBenchmarkJSON pins the file at the repo root to the
// tables in spec.go: regenerate it with `go run ./bench manifest`.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("BENCHMARK.json differs from `go run ./bench manifest`")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestQuickPass runs every workload in process at tiny sizes, measured and
// traced, and checks what a driver run would print: every declared metric
// once, finite, under a well-formed name, no failed op, and equal digests
// from two repeats of each simulation (the committed goldens are checked by
// full-size runs only).
func TestQuickPass(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		o := runOpts{Seed: 7, Repeats: 2, Quick: true, OutDir: dir, Log: io.Discard}
		res, err := measure(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		if !w.Live && len(res.Digest) != 64 {
			t.Errorf("%s: digest %q", w.Name, res.Digest)
		}
		checkLine(t, w.Name, res, false, endToEnd, true)

		tr, err := traceWorkload(w, o, res.Metrics["ops_per_s"].Median)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if len(tr.Errors) != 0 {
			t.Errorf("%s traced: %v", w.Name, tr.Errors)
		}
		res.Layers = tr.Layers
		checkLine(t, w.Name+" traced", res, true, perLayer, false)
		if !strings.Contains(tr.Table, "unattributed") || !strings.Contains(tr.Table, "tracing overhead") {
			t.Errorf("%s: attribution table incomplete:\n%s", w.Name, tr.Table)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// checkLine parses the driver's result line and holds it to the contract.
func checkLine(t *testing.T, what string, res *wlResult, traced bool, want []metricDef, nonZero bool) {
	t.Helper()
	b, err := driverLine(res, traced)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
		t.Errorf("%s: result line keys: %s", what, b)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(metrics), len(want))
	}
	for _, m := range want {
		got, ok := metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, m.Name, got.Unit, m.Unit)
		case nonZero && *got.Value <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", what, m.Name, *got.Value)
		}
	}
}

func syntheticResult() *resultFile {
	rf := &resultFile{Workloads: map[string]*wlResult{}}
	for _, w := range workloads {
		r := &wlResult{Correct: true, Attempted: 100, Digest: "d", Metrics: map[string]*dist{}, Layers: map[string]float64{}}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = newDist(m.Unit, []float64{100, 101, 99, 100, 100})
		}
		for _, m := range perLayer {
			r.Layers[m.Name] = 1000
		}
		rf.Workloads[w.Name] = r
	}
	return rf
}

func TestCompare(t *testing.T) {
	base := syntheticResult()
	if bad := compare(io.Discard, base, syntheticResult()); bad != 0 {
		t.Errorf("a result compared with itself has %d worse rows", bad)
	}
	slow := syntheticResult()
	slow.Workloads["hit-stream"].Metrics["ops_per_s"] = newDist("op/s", []float64{50, 50, 50, 50, 50})
	var out bytes.Buffer
	if bad := compare(&out, base, slow); bad != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved ops_per_s: %d worse rows\n%s", bad, out.String())
	}
	fast := syntheticResult()
	fast.Workloads["hit-stream"].Metrics["ops_per_s"] = newDist("op/s", []float64{200, 200, 200, 200, 200})
	if bad := compare(io.Discard, base, fast); bad != 0 {
		t.Errorf("doubled ops_per_s counted as worse (%d rows)", bad)
	}
	counted := syntheticResult()
	counted.Workloads["table-churn"].Layers["sim.events"] = 1001
	if bad := compare(io.Discard, base, counted); bad != 1 {
		t.Errorf("a changed exact count on a simulation: %d worse rows, want 1", bad)
	}
	counted.Workloads["table-churn"].Layers["sim.events"] = 1000
	counted.Workloads["live-switch"].Layers["controller.msgs_in"] = 7
	if bad := compare(io.Discard, base, counted); bad != 0 {
		t.Errorf("live counts are not exact, yet %d rows are worse", bad)
	}
	noisy := syntheticResult()
	noisy.Workloads["fabric-1k"].Metrics["ops_per_s"] = newDist("op/s", []float64{80, 120, 100, 70, 130})
	out.Reset()
	if bad := compare(&out, base, noisy); bad != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved (%d worse)\n%s", bad, out.String())
	}
	spiky := syntheticResult()
	spiky.Workloads["paper-figs"].Metrics["peak_rss_mb"] = newDist("MB", []float64{99, 180, 170, 100, 190})
	if bad := compare(io.Discard, base, spiky); bad != 0 {
		t.Errorf("peak_rss_mb reports its lowest repeat, yet late collections made %d rows worse", bad)
	}
	changed := syntheticResult()
	changed.Workloads["paper-figs"].Digest = "e"
	if bad := compare(io.Discard, base, changed); bad != 1 {
		t.Errorf("a changed digest: %d worse rows, want 1", bad)
	}
}

// TestQuartilesMatchPython holds quartiles to statistics.quantiles(n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v; Python gives 1, 3", q1, q3)
	}
	if got := supportedQuantile([]uint32{1, 2, 3}, 0.99); got != 2 {
		t.Errorf("p99 of three samples = %d, want their median", got)
	}
	many := make([]uint32, 2000)
	for i := range many {
		many[i] = uint32(i + 1)
	}
	if got := supportedQuantile(many, 0.99); got != 1980 {
		t.Errorf("p99 of 1..2000 = %d, want 1980", got)
	}
}

func TestSplitTraceFlag(t *testing.T) {
	for in, want := range map[string]string{
		"--trace":                       "--trace=1",
		"--trace --quick":               "--trace=1 --quick",
		"--workload x --trace 0":        "--workload x --trace 0",
		"--seed 2 --trace 1 --quick":    "--seed 2 --trace 1 --quick",
		"--workloads hit-stream -trace": "--workloads hit-stream --trace=1",
	} {
		if got := strings.Join(splitTraceFlag(strings.Fields(in)), " "); got != want {
			t.Errorf("splitTraceFlag(%q) = %q, want %q", in, got, want)
		}
	}
}
