package testbed

import (
	"fmt"
	"os"
	"testing"

	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/tablemgmt"
	"sdnbuffer/internal/topo"
)

// runTableMgmtFabric runs a line:4 fabric under table pressure — capacity-4
// LRU tables, 1s idle timeouts, flow_removed requested — with or without the
// controller-side aggregation tracker.
func runTableMgmtFabric(t *testing.T, agg bool, flows int, seed int64) *FabricResult {
	t.Helper()
	graph := buildGraph(t, "line:4")
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket, RerequestTimeoutMs: 50}
	cfg := DefaultConfig(buf, 256)
	cfg.Seed = seed
	cfg.Forwarder.IdleTimeout = 1
	cfg.Forwarder.RequestFlowRemoved = true
	cfg.Switch.Datapath.TableCapacity = 4
	cfg.Switch.Datapath.EvictionPolicy = flowtable.EvictLRU
	opts := FabricOptions{Graph: graph, Install: topo.InstallHopByHop}
	if agg {
		opts.TableMgmt = &tablemgmt.Config{TableCapacity: 4, RequestFlowRemoved: true}
	}
	fb, err := NewFabric(cfg, opts)
	if err != nil {
		t.Fatalf("NewFabric(agg=%v): %v", agg, err)
	}
	sched, err := pktgen.SinglePacketFlows(fabricPktgen(graph, 40, fb.opts.DstHost), flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.Run(sched)
	if err != nil {
		t.Fatalf("Run(agg=%v): %v", agg, err)
	}
	return res
}

// checkTableMgmtLedger asserts the rule ledger closes and no buffer unit
// leaks.
func checkTableMgmtLedger(t *testing.T, label string, res *FabricResult) {
	t.Helper()
	if res.LedgerGap != 0 {
		t.Errorf("%s: rule ledger gap %d", label, res.LedgerGap)
	}
	if res.BufferUnitsLeaked != 0 {
		t.Errorf("%s: leaked %d buffer units", label, res.BufferUnitsLeaked)
	}
}

// TestFabricTableMgmtLedgerCloses runs both aggregation arms under table
// pressure: without aggregation, eviction or rejects must actually happen;
// with it, compression must absorb the pressure. Either way the rule ledger
// — installs, per-reason removals, rejects — closes with no leaked units.
func TestFabricTableMgmtLedgerCloses(t *testing.T) {
	for _, agg := range []bool{false, true} {
		res := runTableMgmtFabric(t, agg, 32, 1)
		if res.RuleInstalls == 0 {
			t.Fatalf("agg=%v: installed no rules", agg)
		}
		if !agg && res.RemovedEvict == 0 && res.RuleRejects == 0 {
			t.Fatal("capacity-4 tables under 32 flows saw no eviction or reject; pressure scenario inert")
		}
		if agg && (res.Aggregations == 0 || res.RulesCompressed == 0) {
			t.Fatalf("aggregation enabled but inert: %d aggregations, %d rules compressed",
				res.Aggregations, res.RulesCompressed)
		}
		checkTableMgmtLedger(t, fmt.Sprintf("agg=%v", agg), res)
	}
}

// TestTableMgmtSoak is the CI soak entry point (TABLEMGMT_SOAK=1, typically
// under -race): 10 seeds × both aggregation arms, each seed held to a closed
// rule ledger and zero buffer leaks. Skipped by default.
func TestTableMgmtSoak(t *testing.T) {
	if os.Getenv("TABLEMGMT_SOAK") == "" {
		t.Skip("set TABLEMGMT_SOAK=1 to run the 10-seed table-management soak")
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, agg := range []bool{false, true} {
			res := runTableMgmtFabric(t, agg, 32, seed)
			checkTableMgmtLedger(t, fmt.Sprintf("seed=%d agg=%v", seed, agg), res)
		}
	}
}
