package testbed

import (
	"fmt"
	"os"
	"testing"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/topo"
)

// The survivability contract (DESIGN.md §16), pinned on a 2×2 leaf-spine:
// kill a link or a switch on the active path mid-run and the fabric must
// reroute and keep delivering — no routing loop ever forms, surviving
// traffic arrives exactly once in order, and every in-window loss is
// attributed to a named drop reason (the ledger below closes exactly).

// survivabilitySched is a multi-packet-per-flow workload long enough to
// straddle a mid-run failure window: 8 flows × 30 frames at 40 Mbps spans
// roughly 48 ms of sending.
func survivabilitySched(t *testing.T, g *topo.Graph, dst int) pktgen.Schedule {
	t.Helper()
	sched, err := pktgen.InterleavedBursts(fabricPktgen(g, 40, dst), 8, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// midWindow places a 20 ms failure window in the middle of the schedule.
func midWindow(sched pktgen.Schedule) netem.Window {
	start := sched.Duration() / 3
	return netem.Window{Start: start, End: start + 20*time.Millisecond}
}

// dropLedger sums the named in-window loss reasons. FramesSent must equal
// FramesDelivered plus exactly this — an unnamed loss is a bug.
func dropLedger(res *FabricResult) int64 {
	return res.LinkDownDrops + int64(res.TxDownDrops) + int64(res.BufDropsDeadPort) +
		int64(res.CrashRxDrops) + int64(res.CrashBufPackets)
}

// settleDeadline is when a failure plan's last transition must have fully
// reconverged: the last window edge plus one re-request period (the slowest
// recovery spring) and control-plane slack.
func settleDeadline(plan *netem.FailurePlan) time.Duration {
	var last time.Duration
	for _, lf := range plan.Links {
		if lf.Window.End > last {
			last = lf.Window.End
		}
	}
	for _, sf := range plan.Switches {
		if sf.Window.End > last {
			last = sf.Window.End
		}
	}
	return last + 60*time.Millisecond
}

// checkSurvivability asserts the invariants every failure run must keep.
// Transient reordering while old-path and new-path frames race is physical
// and allowed — but only until settleBy; afterwards delivery is exactly
// once in order.
func checkSurvivability(t *testing.T, label string, res *FabricResult, settleBy time.Duration) {
	t.Helper()
	if res.LoopFrames != 0 {
		t.Errorf("%s: %d loop frames", label, res.LoopFrames)
	}
	if res.DupEmissions != 0 || res.Misdelivered != 0 {
		t.Errorf("%s: dups %d, misdelivered %d", label, res.DupEmissions, res.Misdelivered)
	}
	if res.LastReorderTime > settleBy {
		t.Errorf("%s: reorder delivered at %v, past the settle deadline %v",
			label, res.LastReorderTime, settleBy)
	}
	if res.Unroutable != 0 || res.Blackholes != 0 {
		t.Errorf("%s: unroutable %d, blackholes %d on a fabric with a spare spine",
			label, res.Unroutable, res.Blackholes)
	}
	if res.ReroutedPaths == 0 {
		t.Errorf("%s: no next hops changed — the failure was never learned", label)
	}
	if got, want := res.FramesDelivered+dropLedger(res), int64(res.FramesSent); got != want {
		t.Errorf("%s: ledger does not close: delivered %d + named drops %d = %d, sent %d",
			label, res.FramesDelivered, dropLedger(res), got, want)
	}
	if res.FramesDelivered <= int64(res.FramesSent)/2 {
		t.Errorf("%s: only %d of %d frames survived a 20ms window",
			label, res.FramesDelivered, res.FramesSent)
	}
	if res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 {
		t.Errorf("%s: leaked %d units / %d bytes", label, res.BufferUnitsLeaked, res.BufferBytesLeaked)
	}
	if res.ConvergenceTime <= 0 {
		t.Errorf("%s: convergence time %v", label, res.ConvergenceTime)
	}
}

// runSurvivability builds a 2×2 leaf-spine, kills mid-run whatever the plan
// names, and returns the result.
func runSurvivability(t *testing.T, gran openflow.BufferGranularity, install topo.InstallMode,
	shards int, mkPlan func(g *topo.Graph, w netem.Window) *netem.FailurePlan) (*FabricResult, time.Duration) {
	t.Helper()
	graph := buildGraph(t, "leafspine:leaves=2,spines=2")
	sched := survivabilitySched(t, graph, 1)
	plan := mkPlan(graph, midWindow(sched))
	buf := openflow.FlowBufferConfig{Granularity: gran, RerequestTimeoutMs: 50}
	cfg := DefaultConfig(buf, 256)
	cfg.Seed = 1
	fb, err := NewFabric(cfg, FabricOptions{
		Graph:    graph,
		Shards:   shards,
		Install:  install,
		Failures: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	return res, settleDeadline(plan)
}

// firstHopPlan kills the active path's first inter-switch link.
func firstHopPlan(g *topo.Graph, w netem.Window) *netem.FailurePlan {
	path, err := g.HostPath(0, 1)
	if err != nil || len(path) < 2 {
		panic(fmt.Sprintf("leaf-spine path: %v (%d hops)", err, len(path)))
	}
	return &netem.FailurePlan{Links: []netem.LinkFailure{
		{A: path[0].Switch, B: path[1].Switch, Window: w},
	}}
}

// midSpinePlan crashes the spine the active path crosses.
func midSpinePlan(g *topo.Graph, w netem.Window) *netem.FailurePlan {
	path, err := g.HostPath(0, 1)
	if err != nil || len(path) < 3 {
		panic(fmt.Sprintf("leaf-spine path: %v (%d hops)", err, len(path)))
	}
	return &netem.FailurePlan{Switches: []netem.SwitchFailure{
		{Switch: path[1].Switch, Window: w},
	}}
}

func TestFabricLinkFailureSurvivability(t *testing.T) {
	// Every mechanism × both install modes: a mid-run link kill on the
	// active path must reroute over the spare spine with the invariants
	// intact. The mechanisms differ only in what the refused releases cost:
	// flow granularity re-offers parked units after the reroute, so its
	// dead-port buffer losses are zero by construction.
	for _, gran := range []openflow.BufferGranularity{
		openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow,
	} {
		for _, install := range []topo.InstallMode{topo.InstallHopByHop, topo.InstallPath} {
			label := fmt.Sprintf("gran=%v install=%v", gran, install)
			res, settle := runSurvivability(t, gran, install, 1, firstHopPlan)
			checkSurvivability(t, label, res, settle)
			if gran == openflow.GranularityFlow && res.BufDropsDeadPort != 0 {
				t.Errorf("%s: flow granularity destroyed %d buffered packets (units must stay parked)",
					label, res.BufDropsDeadPort)
			}
		}
	}
}

func TestFabricSwitchCrashSurvivability(t *testing.T) {
	// Crash the active spine mid-run: neighbors see carrier loss, traffic
	// reroutes over the other spine, and the chassis losses — wiped buffers,
	// frames into the dead switch — are named in the ledger. After restart
	// the pristine routes return through the empty switch's miss path.
	res, settle := runSurvivability(t, openflow.GranularityFlow, topo.InstallPath, 1, midSpinePlan)
	checkSurvivability(t, "spine crash", res, settle)
	if res.CrashBufPackets == 0 && res.CrashRxDrops == 0 && res.LinkDownDrops == 0 {
		t.Error("spine crash destroyed nothing — the failure never bit the workload")
	}
}

func TestFabricSurvivabilityDeterministic(t *testing.T) {
	// A failure run is exactly reproducible, and sharded recovery — two
	// controllers learning the failure at different times over the peer
	// sync link — keeps every invariant.
	run := func() (*FabricResult, time.Duration) {
		return runSurvivability(t, openflow.GranularityFlow, topo.InstallPath, 2, firstHopPlan)
	}
	res, settle := run()
	checkSurvivability(t, "sharded link failure", res, settle)
	again, _ := run()
	diffResults(t, "repeat run", res, again)
}

func TestFabricSurvivabilityLinkKillThenSpineCrash(t *testing.T) {
	// Two failures in one run on a two-shard fabric: the active path's
	// first link dies, and after it heals the spine it crossed crashes.
	// Both shards must learn both transitions and every invariant holds.
	mkPlan := func(g *topo.Graph, w netem.Window) *netem.FailurePlan {
		p := firstHopPlan(g, w)
		late := netem.Window{Start: w.End + 5*time.Millisecond, End: w.End + 15*time.Millisecond}
		p.Switches = midSpinePlan(g, late).Switches
		return p
	}
	res, settle := runSurvivability(t, openflow.GranularityFlow, topo.InstallPath, 2, mkPlan)
	checkSurvivability(t, "link kill then spine crash", res, settle)
}

func TestFabricEmptyFailurePlanIsInert(t *testing.T) {
	// The zero-value plan is the absence of the feature: same results, same
	// executed-event count as a fabric that never heard of failure plans.
	run := func(plan *netem.FailurePlan) (*FabricResult, uint64) {
		graph := buildGraph(t, "leafspine:leaves=2,spines=2")
		sched := survivabilitySched(t, graph, 1)
		buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}
		fb, err := NewFabric(DefaultConfig(buf, 256), FabricOptions{Graph: graph, Failures: plan})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fb.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		return res, fb.Kernel().Executed()
	}
	base, baseExec := run(nil)
	empty, emptyExec := run(&netem.FailurePlan{})
	diffResults(t, "empty plan", base, empty)
	if baseExec != emptyExec {
		t.Errorf("empty plan executed %d events, baseline %d", emptyExec, baseExec)
	}
	if base.FramesDelivered != int64(base.FramesSent) {
		t.Errorf("healthy baseline delivered %d of %d", base.FramesDelivered, base.FramesSent)
	}
}

// TestSurvivabilitySoak is CI's survivability seed sweep (SURVIVABILITY_SOAK=1,
// under the race detector): many seeds × both failure scenarios × mechanisms,
// every run held to the full survivability contract. Skipped unless
// SURVIVABILITY_SOAK is set so regular `go test` stays fast.
func TestSurvivabilitySoak(t *testing.T) {
	if os.Getenv("SURVIVABILITY_SOAK") == "" {
		t.Skip("set SURVIVABILITY_SOAK=1 to run the survivability seed sweep")
	}
	graph := buildGraph(t, "leafspine:leaves=2,spines=2")
	plans := []struct {
		name string
		mk   func(g *topo.Graph, w netem.Window) *netem.FailurePlan
	}{{"link", firstHopPlan}, {"crash", midSpinePlan}}
	grans := []openflow.BufferGranularity{
		openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow,
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, pl := range plans {
			for _, gran := range grans {
				label := fmt.Sprintf("seed=%d %s gran=%v", seed, pl.name, gran)
				pg := fabricPktgen(graph, 40, 1)
				pg.Seed = seed
				sched, err := pktgen.InterleavedBursts(pg, 8, 30, 4)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				plan := pl.mk(graph, midWindow(sched))
				buf := openflow.FlowBufferConfig{Granularity: gran, RerequestTimeoutMs: 50}
				cfg := DefaultConfig(buf, 256)
				cfg.Seed = seed
				fb, err := NewFabric(cfg, FabricOptions{
					Graph:    graph,
					Shards:   2,
					Install:  topo.InstallPath,
					Failures: plan,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				res, err := fb.Run(sched)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkSurvivability(t, label, res, settleDeadline(plan))
				t.Logf("%s: delivered %d/%d, converged in %v, %d rerouted",
					label, res.FramesDelivered, res.FramesSent, res.ConvergenceTime, res.ReroutedPaths)
			}
		}
	}
}

func TestFabricFailurePlanValidation(t *testing.T) {
	graph := buildGraph(t, "leafspine:leaves=2,spines=2")
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow}
	cfg := DefaultConfig(buf, 64)
	w := netem.Window{Start: time.Millisecond, End: 2 * time.Millisecond}
	for name, plan := range map[string]*netem.FailurePlan{
		"switch out of range": {Switches: []netem.SwitchFailure{{Switch: 9, Window: w}}},
		"link out of range":   {Links: []netem.LinkFailure{{A: 0, B: 9, Window: w}}},
		"not an edge":         {Links: []netem.LinkFailure{{A: 0, B: 1, Window: w}}}, // both leaves
		"self loop":           {Links: []netem.LinkFailure{{A: 2, B: 2, Window: w}}},
		"bad window":          {Switches: []netem.SwitchFailure{{Switch: 2, Window: netem.Window{Start: time.Second, End: time.Second}}}},
	} {
		if _, err := NewFabric(cfg, FabricOptions{Graph: graph, Failures: plan}); err == nil {
			t.Errorf("%s: NewFabric succeeded", name)
		}
	}
}
