package experiments

import (
	"bytes"
	"testing"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/switchd"
)

func smallResilienceOptions(parallelism int) ResilienceOptions {
	return ResilienceOptions{
		LossRates:   []float64{0, 0.02, 0.05},
		Repeats:     2,
		Flows:       20,
		PktsPerFlow: 8,
		Group:       5,
		Parallelism: parallelism,
	}
}

// TestResilienceFlowSeriesAcceptance pins the 5%-loss acceptance criteria
// for the flow-granularity mechanisms: full delivery, zero leaked units,
// exactly-once in-order emission.
func TestResilienceFlowSeriesAcceptance(t *testing.T) {
	res, err := RunResilience(smallResilienceOptions(0))
	if err != nil {
		t.Fatalf("RunResilience: %v", err)
	}
	rows := rowsOf(t, res)
	series := map[string]bool{}
	sawPacketGranMisorder := false
	for _, p := range rows {
		name, loss := p.str("series"), p.num("loss_rate")
		series[name] = true
		flowSeries := name == SeriesFlowGranularity.Name || name == SeriesFlowHardened.Name
		if p.num("dups") != 0 {
			t.Errorf("%s loss %g: %g duplicate emissions", name, loss, p.num("dups"))
		}
		// Per-flow ordering is only guaranteed by flow granularity: under
		// packet granularity a post-install packet legally fast-paths past
		// its still-buffered predecessors (the paper's §V reordering
		// motivation), so only record that it happens.
		if flowSeries && p.num("misorders") != 0 {
			t.Errorf("%s loss %g: %g order violations", name, loss, p.num("misorders"))
		}
		if !flowSeries && p.num("misorders") != 0 {
			sawPacketGranMisorder = true
		}
		if p.num("leaked") != 0 {
			t.Errorf("%s loss %g: %g leaked buffer units", name, loss, p.num("leaked"))
		}
		if flowSeries && p.num("delivery_min") != 1 {
			t.Errorf("%s loss %g: delivery min %g, want 1 (re-request must recover every flow)",
				name, loss, p.num("delivery_min"))
		}
		if flowSeries && loss >= 0.05 && p.num("rerequests") == 0 {
			t.Errorf("%s loss %g: no re-requests — loss plan not applied?", name, loss)
		}
	}
	if len(series) != 3 {
		t.Fatalf("series count = %d", len(series))
	}
	if !sawPacketGranMisorder {
		t.Error("packet granularity showed no setup-window reordering — tap not measuring?")
	}
}

// TestResilienceBurstyLoss exercises the Gilbert–Elliott path end to end.
func TestResilienceBurstyLoss(t *testing.T) {
	opts := smallResilienceOptions(0)
	opts.LossRates = []float64{0.05}
	opts.BurstLen = 4
	res, err := RunResilience(opts)
	if err != nil {
		t.Fatalf("RunResilience: %v", err)
	}
	for _, p := range rowsOf(t, res) {
		if p.str("series") == SeriesFlowGranularity.Name {
			if p.num("delivery_min") != 1 || p.num("leaked") != 0 || p.num("dups") != 0 || p.num("misorders") != 0 {
				t.Errorf("bursty loss: delivery=%g leaked=%g dups=%g misorders=%g",
					p.num("delivery_min"), p.num("leaked"), p.num("dups"), p.num("misorders"))
			}
		}
	}
}

// TestRunOutage pins the blackout scenario shape: four rows, degraded
// forwarding only under fail-standalone, and standalone beating fail-secure
// for the bufferless switch.
func TestRunOutage(t *testing.T) {
	// The reduced workload spans ~26ms of virtual time, so the blackout must
	// sit inside it rather than at the full-size default of 40–120ms.
	opts := OutageOptions{
		Flows: 20, PktsPerFlow: 8, Group: 5,
		Window: netem.Window{Start: 5 * time.Millisecond, End: 15 * time.Millisecond},
	}
	out, err := RunOutage(opts, 0)
	if err != nil {
		t.Fatalf("RunOutage: %v", err)
	}
	rows := rowsOf(t, out)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := map[string]tableRow{}
	for _, r := range rows {
		series, mode := r.str("series"), r.str("fail_mode")
		byKey[series+"/"+mode] = r
		if mode == switchd.FailSecure.String() && r.num("standalone_forwards") != 0 {
			t.Errorf("%s fail-secure standalone-forwarded %g frames", series, r.num("standalone_forwards"))
		}
		if r.num("control_down_misses") == 0 {
			t.Errorf("%s/%s saw no misses during the blackout", series, mode)
		}
		if r.num("leaked") != 0 {
			t.Errorf("%s/%s leaked %g units", series, mode, r.num("leaked"))
		}
	}
	nbSecure := byKey["no-buffer/fail-secure"].num("delivery")
	nbStandalone := byKey["no-buffer/fail-standalone"].num("delivery")
	if nbStandalone <= nbSecure {
		t.Errorf("no-buffer: standalone delivery %g <= fail-secure %g", nbStandalone, nbSecure)
	}
	if fgSecure := byKey["flow-granularity/fail-secure"].num("delivery"); fgSecure != 1 {
		t.Errorf("flow-granularity fail-secure delivery %g, want 1 (buffer + re-request rides out the blackout)",
			fgSecure)
	}
	// Tables and CSV must render without error.
	var buf bytes.Buffer
	if err := out.WriteTable(&buf); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if err := out.WriteCSV(&buf, true); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	res, err := RunResilience(smallResilienceOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteTable(&buf); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("empty report output")
	}
}
