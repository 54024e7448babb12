package testbed

import (
	"os"
	"testing"
	"time"

	"sdnbuffer/internal/chaos"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
)

// chaosConfig builds a flow-granularity testbed with combined flow_mods (the
// atomic install+release keeps buffer drains exactly-once even when control
// messages duplicate) under the given fault plan.
func chaosConfig(seed int64, plan *chaos.Plan) Config {
	cfg := DefaultConfig(openflow.FlowBufferConfig{
		Granularity:        openflow.GranularityFlow,
		RerequestTimeoutMs: 50,
	}, 256)
	cfg.Seed = seed
	cfg.Forwarder.CombinedFlowMod = true
	cfg.Chaos = plan
	return cfg
}

func runChaos(t *testing.T, cfg Config) *Result {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pcfg := pktgenConfig(50)
	pcfg.Seed = cfg.Seed
	sched, err := pktgen.InterleavedBursts(pcfg, 30, 10, 5)
	if err != nil {
		t.Fatalf("InterleavedBursts: %v", err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestChaosLossExactlyOnceInOrder is the satellite property test: replaying
// seeded impairment schedules (loss, reorder, duplication on both control
// directions), every flow's queue must drain exactly once, in arrival order,
// with no buffer unit left behind.
func TestChaosLossExactlyOnceInOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		imp := netem.Impairment{
			LossRate:       0.05,
			ReorderProb:    0.05,
			ReorderDelay:   2 * time.Millisecond,
			DuplicateProb:  0.05,
			DuplicateDelay: time.Millisecond,
		}
		plan := &chaos.Plan{Name: "loss-reorder-dup", ControlUp: imp, ControlDown: imp}
		res := runChaos(t, chaosConfig(seed, plan))
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("seed %d: delivered %d of %d", seed, res.FramesDelivered, res.FramesSent)
		}
		if res.DupEmissions != 0 {
			t.Errorf("seed %d: %d duplicate emissions", seed, res.DupEmissions)
		}
		if res.OrderViolations != 0 {
			t.Errorf("seed %d: %d order violations", seed, res.OrderViolations)
		}
		if res.BufferUnitsLeaked != 0 {
			t.Errorf("seed %d: %d buffer units leaked", seed, res.BufferUnitsLeaked)
		}
		if res.Rerequests == 0 {
			t.Errorf("seed %d: no re-requests under 5%% loss — impairment not applied?", seed)
		}
	}
}

// TestChaosOutageFailSecureRecovers: a mid-workload control blackout under
// fail-secure must not lose a single frame — misses keep buffering, and the
// re-request timer recovers everything once the channel returns.
func TestChaosOutageFailSecureRecovers(t *testing.T) {
	plan := chaos.Outage(20*time.Millisecond, 60*time.Millisecond)
	res := runChaos(t, chaosConfig(1, plan))
	if res.FramesDelivered != int64(res.FramesSent) {
		t.Errorf("delivered %d of %d across the outage", res.FramesDelivered, res.FramesSent)
	}
	if res.ControlDownMisses == 0 {
		t.Error("no misses observed while control was down — outage not applied?")
	}
	if res.StandaloneForwards != 0 {
		t.Errorf("fail-secure datapath standalone-forwarded %d frames", res.StandaloneForwards)
	}
	if res.BufferUnitsLeaked != 0 {
		t.Errorf("%d buffer units leaked", res.BufferUnitsLeaked)
	}
	if res.DupEmissions != 0 || res.OrderViolations != 0 {
		t.Errorf("dups=%d misorders=%d after outage recovery", res.DupEmissions, res.OrderViolations)
	}
}

// TestChaosOutageFailStandaloneBeatsFailSecure: with buffering disabled, a
// blackout drops every in-flight miss under fail-secure, while the
// fail-standalone learning switch keeps traffic moving.
func TestChaosOutageFailStandaloneBeatsFailSecure(t *testing.T) {
	run := func(mode switchd.FailMode) *Result {
		cfg := DefaultConfig(openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}, 256)
		cfg.Seed = 1
		cfg.Switch.Datapath.FailMode = mode
		cfg.Chaos = chaos.Outage(20*time.Millisecond, 60*time.Millisecond)
		return runChaos(t, cfg)
	}
	secure := run(switchd.FailSecure)
	standalone := run(switchd.FailStandalone)
	if secure.FramesDelivered >= int64(secure.FramesSent) {
		t.Errorf("fail-secure no-buffer delivered %d of %d — blackout had no effect?",
			secure.FramesDelivered, secure.FramesSent)
	}
	if standalone.StandaloneForwards == 0 {
		t.Error("fail-standalone forwarded nothing during the blackout")
	}
	if standalone.FramesDelivered <= secure.FramesDelivered {
		t.Errorf("standalone delivered %d, secure %d — degraded forwarding should win",
			standalone.FramesDelivered, secure.FramesDelivered)
	}
}

// TestChaosControllerStallReplaysInOrder: a controller stall window parks
// arriving requests and replays them at window end; nothing is lost,
// duplicated or reordered on the data path.
func TestChaosControllerStallReplaysInOrder(t *testing.T) {
	plan := &chaos.Plan{
		Name:       "stall",
		Controller: chaos.ControllerFaults{Stalls: []netem.Window{{Start: 10 * time.Millisecond, End: 40 * time.Millisecond}}},
	}
	res := runChaos(t, chaosConfig(1, plan))
	if res.CtrlStalled == 0 {
		t.Error("no messages stalled — injector not wired?")
	}
	if res.FramesDelivered != int64(res.FramesSent) {
		t.Errorf("delivered %d of %d across the stall", res.FramesDelivered, res.FramesSent)
	}
	if res.DupEmissions != 0 || res.OrderViolations != 0 || res.BufferUnitsLeaked != 0 {
		t.Errorf("dups=%d misorders=%d leaked=%d", res.DupEmissions, res.OrderViolations, res.BufferUnitsLeaked)
	}
}

// TestChaosHardenedGiveUpNeverLeaks: under a totally dead up-channel the
// hardened mechanism abandons each flow after its re-request budget and
// must hand every buffer unit back to the pool.
func TestChaosHardenedGiveUpNeverLeaks(t *testing.T) {
	cfg := DefaultConfig(openflow.FlowBufferConfig{
		Granularity:         openflow.GranularityFlow,
		RerequestTimeoutMs:  50,
		MaxRerequests:       4,
		RerequestBackoffPct: 100,
	}, 256)
	cfg.Seed = 1
	cfg.Forwarder.CombinedFlowMod = true
	// A whole-run outage on the up direction: no request ever reaches the
	// controller, so every buffered flow must exhaust its budget and give up.
	cfg.Chaos = &chaos.Plan{Name: "dead-up", ControlUp: netem.Impairment{
		Outages: []netem.Window{{Start: 0, End: time.Hour}},
	}}
	res := runChaos(t, cfg)
	if res.FramesDelivered != 0 {
		t.Errorf("delivered %d frames over a dead up-channel", res.FramesDelivered)
	}
	if res.Giveups == 0 {
		t.Error("no give-ups recorded — retry budget not applied?")
	}
	if res.BufferUnitsLeaked != 0 {
		t.Errorf("%d buffer units leaked after give-up", res.BufferUnitsLeaked)
	}
}

// TestChaosDeterministicReplay: the same seed and plan must reproduce the
// run bit for bit, counters included.
func TestChaosDeterministicReplay(t *testing.T) {
	imp := netem.Impairment{LossRate: 0.05, DuplicateProb: 0.03, DuplicateDelay: time.Millisecond}
	mk := func() *Result {
		plan := &chaos.Plan{Name: "replay", ControlUp: imp, ControlDown: imp}
		return runChaos(t, chaosConfig(3, plan))
	}
	a, b := mk(), mk()
	if *a != *b {
		t.Errorf("seeded chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosSoak is the long-running seed sweep behind CI's non-gating
// chaos-soak job. It is skipped unless CHAOS_SOAK is set so the regular
// test run stays fast; the soak drives many more seeds through the full
// loss+reorder+dup plan and a mid-run outage, asserting the same
// exactly-once/zero-leak invariants on every one.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("set CHAOS_SOAK=1 to run the long chaos seed sweep")
	}
	imp := netem.Impairment{
		LossRate:       0.08,
		ReorderProb:    0.05,
		ReorderDelay:   2 * time.Millisecond,
		DuplicateProb:  0.05,
		DuplicateDelay: time.Millisecond,
	}
	for seed := int64(1); seed <= 40; seed++ {
		plan := &chaos.Plan{
			Name:        "soak",
			ControlUp:   imp,
			ControlDown: imp,
			Controller: chaos.ControllerFaults{
				Stalls: []netem.Window{{Start: 15 * time.Millisecond, End: 30 * time.Millisecond}},
			},
		}
		res := runChaos(t, chaosConfig(seed, plan))
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("seed %d: delivered %d of %d", seed, res.FramesDelivered, res.FramesSent)
		}
		if res.DupEmissions != 0 || res.OrderViolations != 0 || res.BufferUnitsLeaked != 0 {
			t.Errorf("seed %d: dups=%d misorders=%d leaked=%d",
				seed, res.DupEmissions, res.OrderViolations, res.BufferUnitsLeaked)
		}
		t.Logf("seed %d: sent=%d delivered=%d rerequests=%d stalled=%d",
			seed, res.FramesSent, res.FramesDelivered, res.Rerequests, res.CtrlStalled)
	}
}

// TestChaosOnMultiSwitchFabric runs a chaos plan on multi-switch fabrics:
// 5% loss on every control link, one controller stall window (one injector
// per shard) and one switch outage (every datapath in its fail mode). The
// exactly-once, in-order, leak-free oracle of the single-switch chaos tests
// must hold across every hop, every shard's injector must have parked
// requests, and every switch must have missed while its control was down.
func TestChaosOnMultiSwitchFabric(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		shards int
	}{
		{"line:3", 1},
		{"leafspine:leaves=2,spines=1", 2},
	} {
		g := buildGraph(t, tc.spec)
		plan := chaos.SymmetricLoss(0.05)
		// The outage catches the first group's misses on every hop; the
		// stall catches the second group's and the outage's re-requests.
		plan.SwitchOutages = []netem.Window{{Start: 3 * time.Millisecond, End: 10 * time.Millisecond}}
		plan.Controller.Stalls = []netem.Window{{Start: 48 * time.Millisecond, End: 58 * time.Millisecond}}
		fb, err := NewFabric(chaosConfig(1, plan), FabricOptions{Graph: g, Shards: tc.shards})
		if err != nil {
			t.Fatalf("%s: NewFabric: %v", tc.spec, err)
		}
		// Groups of 30 interleaved flows spread each group's first packets
		// over ~5 ms, so flows are at every hop when the outage begins.
		sched, err := pktgen.InterleavedBursts(fabricPktgen(g, 50, 1), 60, 10, 30)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fb.Run(sched)
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.spec, err)
		}
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("%s: delivered %d of %d", tc.spec, res.FramesDelivered, res.FramesSent)
		}
		if res.DupEmissions != 0 || res.OrderViolations != 0 || res.BufferUnitsLeaked != 0 || res.BufferBytesLeaked != 0 {
			t.Errorf("%s: dups=%d misorders=%d leaked=%d units/%d bytes", tc.spec,
				res.DupEmissions, res.OrderViolations, res.BufferUnitsLeaked, res.BufferBytesLeaked)
		}
		if len(fb.injs) != tc.shards {
			t.Fatalf("%s: %d injectors for %d shards", tc.spec, len(fb.injs), tc.shards)
		}
		var stalled int64
		for j, inj := range fb.injs {
			if inj.Stalled == 0 {
				t.Errorf("%s: shard %d stalled nothing", tc.spec, j)
			}
			stalled += inj.Stalled
		}
		if res.CtrlStalled != stalled {
			t.Errorf("%s: CtrlStalled = %d, shards sum to %d", tc.spec, res.CtrlStalled, stalled)
		}
		for i, sw := range fb.Switches() {
			if sf, cdm := sw.Datapath().FailStats(); sf+cdm == 0 {
				t.Errorf("%s: switch %d never missed while its control was down", tc.spec, i)
			}
		}
	}
}
