package experiments

import (
	"bytes"
	"testing"

	"sdnbuffer/internal/topo"
)

// quickFabricOpts is a small grid that still exercises every axis.
func quickFabricOpts(parallelism int) FabricOptions {
	return FabricOptions{
		Topos:       []string{"line:2", "leafspine:leaves=2,spines=1"},
		Mechanisms:  []Series{SeriesNoBuffer, SeriesFlowGranularity},
		Installs:    []topo.InstallMode{topo.InstallHopByHop, topo.InstallPath},
		Shards:      []int{1, 2},
		Flows:       12,
		Repeats:     1,
		NoScale:     true,
		Parallelism: parallelism,
	}
}

func TestRunFabricSweepInvariants(t *testing.T) {
	res, err := RunFabric(quickFabricOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, res)
	if len(rows) != 2*2*2*2 {
		t.Fatalf("points = %d, want 16", len(rows))
	}
	byKey := map[string]tableRow{}
	for _, p := range rows {
		label := p.str("topo") + "/" + p.str("mechanism") + "/" + p.str("install") + "/" + p.str("shards")
		byKey[label] = p
		if p.num("delivery_mean") != 1 {
			t.Errorf("%s: delivery %g", label, p.num("delivery_mean"))
		}
		if p.num("leaked_units") != 0 || p.num("leaked_bytes") != 0 || p.num("dups") != 0 || p.num("misdelivered") != 0 {
			t.Errorf("%s: leak/dup/misdeliver nonzero: %v", label, p.cells)
		}
		// Only flow granularity promises in-order delivery: the whole flow
		// queues behind its first packet at every hop. Under no-buffer the
		// controller round trip re-emits early packets behind later fast-path
		// ones — the reordering is the paper's motivation, not a harness bug.
		if p.str("mechanism") == SeriesFlowGranularity.Name && p.num("misorders") != 0 {
			t.Errorf("%s: flow granularity misordered %g frames", label, p.num("misorders"))
		}
		if p.num("unroutable") != 0 {
			t.Errorf("%s: %g unroutable", label, p.num("unroutable"))
		}
	}
	// Path install on the single-shard line:2 must cost fewer packet_ins
	// than hop-by-hop on the same cell.
	hop := byKey["line:2/flow-granularity/hop/1"]
	path := byKey["line:2/flow-granularity/path/1"]
	if path.num("packet_ins") >= hop.num("packet_ins") {
		t.Errorf("path install packet_ins %g not below hop-by-hop %g", path.num("packet_ins"), hop.num("packet_ins"))
	}
	// The table renderer must not error.
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
}
