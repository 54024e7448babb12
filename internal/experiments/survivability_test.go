package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sdnbuffer/internal/topo"
)

// survivabilityTestOptions is a reduced grid that still crosses both
// failure scenarios with sharded recovery.
func survivabilityTestOptions() SurvivabilityOptions {
	return SurvivabilityOptions{
		Topos:      []string{"leafspine:leaves=2,spines=2"},
		Mechanisms: []Series{SeriesFlowGranularity},
		Installs:   []topo.InstallMode{topo.InstallPath},
		Shards:     []int{1, 2},
		Repeats:    1,
	}
}

func survivabilityCSV(t *testing.T, opts SurvivabilityOptions) string {
	t.Helper()
	res, err := RunSurvivability(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSurvivabilitySweep pins the sweep's acceptance columns: every cell
// reroutes, closes its drop ledger, and keeps the loop/duplication/leak
// counters at zero.
func TestSurvivabilitySweep(t *testing.T) {
	res, err := RunSurvivability(survivabilityTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Points), 2*2; got != want { // 2 scenarios × 2 shard counts
		t.Fatalf("%d points, want %d", got, want)
	}
	for _, p := range res.Points {
		label := p.Topo + "/" + p.Scenario + "/" + p.Series
		if p.Rerouted == 0 {
			t.Errorf("%s: no reroutes — the failure was never learned", label)
		}
		if p.ConvergeMs.Mean() <= 0 {
			t.Errorf("%s: convergence %v ms", label, p.ConvergeMs.Mean())
		}
		if p.Delivery.Mean() <= 0.5 {
			t.Errorf("%s: delivery %v", label, p.Delivery.Mean())
		}
		if p.LedgerGap != 0 {
			t.Errorf("%s: %d unnamed losses", label, p.LedgerGap)
		}
		if p.LoopFrames != 0 || p.Blackholes != 0 || p.Dups != 0 || p.Misdelivered != 0 ||
			p.LateReorders != 0 || p.LeakedUnits != 0 || p.LeakedBytes != 0 {
			t.Errorf("%s: invariant counters nonzero: %+v", label, p)
		}
	}
}

// TestSurvivabilityDeterministic pins the sweep's reproducibility contract:
// the CSV is byte-identical when the grid fans across workers.
func TestSurvivabilityDeterministic(t *testing.T) {
	base := survivabilityTestOptions()
	base.Parallelism = 1
	want := survivabilityCSV(t, base)
	if !strings.Contains(want, "leafspine") {
		t.Fatalf("csv missing rows:\n%s", want)
	}

	fanned := survivabilityTestOptions()
	fanned.Parallelism = 4
	if got := survivabilityCSV(t, fanned); got != want {
		t.Errorf("parallel sweep CSV differs:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestSurvivabilityUnknownScenario pins input validation: an unknown
// scenario fails the sweep instead of silently running nothing.
func TestSurvivabilityUnknownScenario(t *testing.T) {
	opts := survivabilityTestOptions()
	opts.Scenarios = []string{"meteor"}
	if _, err := RunSurvivability(opts); err == nil || !strings.Contains(err.Error(), "meteor") {
		t.Fatalf("err = %v", err)
	}
}
