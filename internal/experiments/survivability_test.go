package experiments

import (
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

// TestSurvivabilitySweep pins the sweep's acceptance columns: every cell
// reroutes, closes its drop ledger, and keeps the loop/duplication/leak
// counters at zero.
func TestSurvivabilitySweep(t *testing.T) {
	res, err := RunSurvivability(survivabilityTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, res)
	if got, want := len(rows), 2*2; got != want { // 2 scenarios × 2 shard counts
		t.Fatalf("%d points, want %d", got, want)
	}
	for _, p := range rows {
		label := p.str("topo") + "/" + p.str("scenario") + "/" + p.str("mechanism")
		if p.num("rerouted") == 0 {
			t.Errorf("%s: no reroutes — the failure was never learned", label)
		}
		if p.num("converge_ms_mean") <= 0 {
			t.Errorf("%s: convergence %v ms", label, p.num("converge_ms_mean"))
		}
		if p.num("delivery_mean") <= 0.5 {
			t.Errorf("%s: delivery %v", label, p.num("delivery_mean"))
		}
		if p.num("ledger_gap") != 0 {
			t.Errorf("%s: %g unnamed losses", label, p.num("ledger_gap"))
		}
		for _, col := range []string{"loop_frames", "blackholes", "dups", "misdelivered",
			"late_reorders", "leaked_units", "leaked_bytes"} {
			if p.num(col) != 0 {
				t.Errorf("%s: invariant counter %s = %g", label, col, p.num(col))
			}
		}
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
