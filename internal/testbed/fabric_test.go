package testbed

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/topo"
)

// fabricConfig is DefaultConfig pointed at a fabric host pair.
func fabricPktgen(g *topo.Graph, rate float64, dst int) pktgen.Config {
	c := pktgenConfig(rate)
	c.DstIP = g.Hosts()[dst].Addr
	return c
}

func buildGraph(t *testing.T, spec string) *topo.Graph {
	t.Helper()
	s, err := topo.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	g, err := topo.Build(s)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	return g
}

func runFabric(t *testing.T, spec string, g openflow.BufferGranularity, opts FabricOptions, rate float64, flows int) (*Fabric, *FabricResult) {
	t.Helper()
	graph := buildGraph(t, spec)
	opts.Graph = graph
	buf := openflow.FlowBufferConfig{Granularity: g, RerequestTimeoutMs: 50}
	fb, err := NewFabric(DefaultConfig(buf, 256), opts)
	if err != nil {
		t.Fatalf("NewFabric(%s): %v", spec, err)
	}
	sched, err := pktgen.SinglePacketFlows(fabricPktgen(graph, rate, fb.opts.DstHost), flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.Run(sched)
	if err != nil {
		t.Fatalf("Run(%s): %v", spec, err)
	}
	return fb, res
}

// diffResults reports every field where two FabricResults disagree, so a
// divergence names the metric instead of dumping two structs.
func diffResults(t *testing.T, label string, want, got *FabricResult) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	wv := reflect.ValueOf(*want)
	gv := reflect.ValueOf(*got)
	typ := wv.Type()
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: %s: want %v, got %v",
				label, typ.Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
	// Result is embedded; walk it too for field names.
	wr := reflect.ValueOf(want.Result)
	gr := reflect.ValueOf(got.Result)
	rt := wr.Type()
	for i := 0; i < rt.NumField(); i++ {
		if !reflect.DeepEqual(wr.Field(i).Interface(), gr.Field(i).Interface()) {
			t.Errorf("%s: Result.%s: want %v, got %v",
				label, rt.Field(i).Name, wr.Field(i).Interface(), gr.Field(i).Interface())
		}
	}
}

func TestFabricDelayMatchesHopSumOracle(t *testing.T) {
	// The end-to-end setup delay of each flow's first packet must equal the
	// sum of its per-hop components exactly: k switch residencies plus the
	// k-1 inter-switch link legs. Integer time, no tolerance — a duplicate
	// delivery, a detour, or a bookkeeping slip all break the identity.
	for _, gran := range []openflow.BufferGranularity{
		openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow,
	} {
		fb, res := runFabric(t, "line:4", gran, FabricOptions{TrackHops: true}, 40, 50)
		if res.FramesDelivered != 50 || res.FlowSetupDelay.Count() != 50 {
			t.Fatalf("gran %v: delivered %d, setup samples %d", gran, res.FramesDelivered, res.FlowSetupDelay.Count())
		}
		if res.PathHops != 4 {
			t.Fatalf("path hops = %d", res.PathHops)
		}
		var meanOfSums float64
		for flow := 0; flow < 50; flow++ {
			enters, exits, ok := fb.HopRecord(flow)
			if !ok {
				t.Fatalf("gran %v: flow %d has no complete hop record", gran, flow)
			}
			total := exits[len(exits)-1] - enters[0]
			var sum time.Duration
			for pos := range enters {
				resid := exits[pos] - enters[pos]
				if resid <= 0 {
					t.Fatalf("gran %v: flow %d hop %d residency %v", gran, flow, pos, resid)
				}
				sum += resid
				if pos > 0 {
					leg := enters[pos] - exits[pos-1]
					if leg <= 0 {
						t.Fatalf("gran %v: flow %d link leg %d = %v", gran, flow, pos-1, leg)
					}
					sum += leg
				}
			}
			if sum != total {
				t.Fatalf("gran %v: flow %d hop sum %v != end-to-end %v", gran, flow, sum, total)
			}
			meanOfSums += total.Seconds()
		}
		meanOfSums /= 50
		if diff := math.Abs(meanOfSums - res.FlowSetupDelay.Mean()); diff > 1e-12 {
			t.Errorf("gran %v: hop-sum mean %g vs setup-delay mean %g (diff %g)",
				gran, meanOfSums, res.FlowSetupDelay.Mean(), diff)
		}
	}
}

func TestFabricRandomTopologiesDeliverExactlyOnceInOrder(t *testing.T) {
	// Seeded random fabrics: whatever the wiring, routing must deliver every
	// frame exactly once, in order, to the right host, and leak nothing.
	for seed := int64(1); seed <= 6; seed++ {
		spec := fmt.Sprintf("random:nodes=%d,extra=%d,seed=%d,hosts=4", 5+seed*3, seed*2, seed)
		_, res := runFabric(t, spec, openflow.GranularityFlow,
			FabricOptions{SrcHost: 0, DstHost: 3}, 40, 60)
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("%s: delivered %d of %d", spec, res.FramesDelivered, res.FramesSent)
		}
		if res.DupEmissions != 0 || res.OrderViolations != 0 || res.Misdelivered != 0 {
			t.Errorf("%s: dups %d, misorders %d, misdelivered %d",
				spec, res.DupEmissions, res.OrderViolations, res.Misdelivered)
		}
		if res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 {
			t.Errorf("%s: leaked %d units / %d bytes", spec, res.BufferUnitsLeaked, res.BufferBytesLeaked)
		}
		if res.Unroutable != 0 {
			t.Errorf("%s: %d unroutable misses", spec, res.Unroutable)
		}
	}
}

func TestFabricPathInstallCollapsesPacketIns(t *testing.T) {
	// Hop-by-hop: every switch on the 4-hop line misses per flow. Path
	// install: only the first switch misses — the route's flow_mods beat the
	// released packet downstream because it must serialize onto each data
	// link while they cross the parallel control links.
	_, hop := runFabric(t, "line:4", openflow.GranularityFlow,
		FabricOptions{Install: topo.InstallHopByHop}, 40, 100)
	_, path := runFabric(t, "line:4", openflow.GranularityFlow,
		FabricOptions{Install: topo.InstallPath}, 40, 100)
	if hop.PacketIns != 400 {
		t.Errorf("hop-by-hop packet_ins = %d, want 400", hop.PacketIns)
	}
	if path.PacketIns != 100 {
		t.Errorf("path-install packet_ins = %d, want 100", path.PacketIns)
	}
	if path.PathInstalls != 300 { // 3 downstream switches × 100 flows
		t.Errorf("path installs = %d, want 300", path.PathInstalls)
	}
	if path.FramesDelivered != 100 || hop.FramesDelivered != 100 {
		t.Errorf("delivered: path %d, hop %d", path.FramesDelivered, hop.FramesDelivered)
	}
	if path.FlowSetupDelay.Mean() >= hop.FlowSetupDelay.Mean() {
		t.Errorf("path setup %g not below hop-by-hop %g",
			path.FlowSetupDelay.Mean(), hop.FlowSetupDelay.Mean())
	}
}

func TestFabricShardingDilutesPathInstall(t *testing.T) {
	// With two shards on a 4-switch line, the shard answering the first miss
	// masters only every other switch: half the downstream rules are skipped
	// and those hops miss on their own.
	_, res := runFabric(t, "line:4", openflow.GranularityFlow,
		FabricOptions{Install: topo.InstallPath, Shards: 2}, 40, 100)
	if res.RemoteSkips == 0 {
		t.Error("two shards skipped no remote path hops")
	}
	if res.PacketIns <= 100 || res.PacketIns >= 400 {
		t.Errorf("sharded path install packet_ins = %d, want between 100 and 400", res.PacketIns)
	}
	if res.FramesDelivered != 100 {
		t.Errorf("delivered %d of 100", res.FramesDelivered)
	}
}

func TestFabricShardHandoffLeaksNothing(t *testing.T) {
	// Crash the shard mastering the entry switch in the middle of flow
	// setup: its switches fail over to the backup shard, re-request timers
	// resend the pending misses, and at quiescence every frame is delivered
	// with zero pool units or bytes still held.
	run := func() *FabricResult {
		graph := buildGraph(t, "line:4")
		buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}
		fb, err := NewFabric(DefaultConfig(buf, 256), FabricOptions{
			Graph:  graph,
			Shards: 2,
			CrashWindows: map[int][]netem.Window{
				0: {{Start: 2 * time.Millisecond, End: 60 * time.Millisecond}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := pktgen.SinglePacketFlows(fabricPktgen(graph, 40, 1), 80)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fb.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Handoffs == 0 {
		t.Fatal("crash window triggered no handoffs")
	}
	if res.CtlDropped == 0 {
		t.Error("crashed controller dropped no control messages")
	}
	if res.FramesDelivered != 80 {
		t.Errorf("delivered %d of 80", res.FramesDelivered)
	}
	if res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 {
		t.Errorf("leaked %d units / %d bytes after handoff", res.BufferUnitsLeaked, res.BufferBytesLeaked)
	}
	if res.DupEmissions != 0 || res.OrderViolations != 0 {
		t.Errorf("dups %d, misorders %d", res.DupEmissions, res.OrderViolations)
	}
	// The crash-and-recover run is as deterministic as a healthy one.
	again := run()
	if res.FlowSetupDelay.Mean() != again.FlowSetupDelay.Mean() ||
		res.PacketIns != again.PacketIns ||
		res.Rerequests != again.Rerequests ||
		res.Handoffs != again.Handoffs ||
		res.CtlDropped != again.CtlDropped {
		t.Errorf("crash run not reproducible: %+v vs %+v", res, again)
	}
}

func TestFabricLeafSpineAndFatTree(t *testing.T) {
	for _, spec := range []string{
		"leafspine:leaves=4,spines=2",
		"fattree:pods=2,leaves=2,spines=2,cores=2",
	} {
		_, res := runFabric(t, spec, openflow.GranularityFlow, FabricOptions{}, 40, 60)
		if res.FramesDelivered != 60 {
			t.Errorf("%s: delivered %d of 60", spec, res.FramesDelivered)
		}
		if res.BufferUnitsLeaked != 0 || res.Misdelivered != 0 {
			t.Errorf("%s: leaked %d, misdelivered %d", spec, res.BufferUnitsLeaked, res.Misdelivered)
		}
		// Every path hop misses once per flow under hop-by-hop install.
		if want := int64(60 * res.PathHops); res.PacketIns != want {
			t.Errorf("%s: packet_ins = %d, want %d (%d hops)", spec, res.PacketIns, want, res.PathHops)
		}
	}
}

func TestFabricOptionValidation(t *testing.T) {
	graph := buildGraph(t, "line:2")
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow}
	cfg := DefaultConfig(buf, 64)
	for name, opts := range map[string]FabricOptions{
		"nil graph":       {},
		"bad shards":      {Graph: graph, Shards: -1},
		"same hosts":      {Graph: graph, SrcHost: 1, DstHost: 1},
		"host range":      {Graph: graph, DstHost: 9},
		"bad crash ctl":   {Graph: graph, Shards: 2, CrashWindows: map[int][]netem.Window{5: {{End: time.Second}}}},
		"bad crash order": {Graph: graph, CrashWindows: map[int][]netem.Window{0: {{Start: time.Second, End: time.Second}}}},
	} {
		if _, err := NewFabric(cfg, opts); err == nil {
			t.Errorf("%s: NewFabric succeeded", name)
		}
	}
}

// TestFabricSoak builds a ≥1000-switch leaf-spine fabric and pushes a
// workload across it — the CI soak job's entry point (FABRIC_SOAK=1,
// typically under -race). Skipped by default: it allocates the full fabric.
func TestFabricSoak(t *testing.T) {
	if os.Getenv("FABRIC_SOAK") == "" {
		t.Skip("set FABRIC_SOAK=1 to run the 1000-switch fabric soak")
	}
	graph := buildGraph(t, "leafspine:leaves=1016,spines=8,hosts=16")
	if graph.NumSwitches() < 1000 {
		t.Fatalf("soak fabric has %d switches", graph.NumSwitches())
	}
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}
	fb, err := NewFabric(DefaultConfig(buf, 256), FabricOptions{
		Graph:   graph,
		Shards:  4,
		Install: topo.InstallPath,
		SrcHost: 0, DstHost: 9, // different leaves: a 3-hop path
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(fabricPktgen(graph, 60, 9), 200, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != int64(len(sched)) {
		t.Errorf("delivered %d of %d", res.FramesDelivered, len(sched))
	}
	if res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 {
		t.Errorf("leaked %d units / %d bytes", res.BufferUnitsLeaked, res.BufferBytesLeaked)
	}
	if res.DupEmissions != 0 || res.OrderViolations != 0 || res.Misdelivered != 0 {
		t.Errorf("dups %d, misorders %d, misdelivered %d", res.DupEmissions, res.OrderViolations, res.Misdelivered)
	}
	t.Logf("soak: %d switches, %d frames, setup mean %.3fms, packet_ins %d, path installs %d",
		res.Switches, res.FramesSent, res.FlowSetupDelay.Mean()*1e3, res.PacketIns, res.PathInstalls)
}
