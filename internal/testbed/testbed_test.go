package testbed

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
)

func pktgenConfig(rate float64) pktgen.Config {
	return pktgen.Config{
		FrameSize: 1000,
		RateMbps:  rate,
		Jitter:    0.5,
		Seed:      7,
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:     netip.MustParseAddr("10.0.0.2"),
	}
}

func runStudyA(t *testing.T, g openflow.BufferGranularity, capacity int, rate float64, flows int) *Result {
	t.Helper()
	buf := openflow.FlowBufferConfig{Granularity: g, RerequestTimeoutMs: 50}
	tb, err := New(DefaultConfig(buf, capacity))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sched, err := pktgen.SinglePacketFlows(pktgenConfig(rate), flows)
	if err != nil {
		t.Fatalf("SinglePacketFlows: %v", err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestAllPacketsDeliveredAcrossModes(t *testing.T) {
	for _, g := range []openflow.BufferGranularity{
		openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow,
	} {
		res := runStudyA(t, g, 256, 50, 300)
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("%v: delivered %d of %d", g, res.FramesDelivered, res.FramesSent)
		}
		if res.FlowsObserved != 300 {
			t.Errorf("%v: flows observed %d", g, res.FlowsObserved)
		}
		if res.FlowSetupDelay.Count() != 300 {
			t.Errorf("%v: setup delay samples %d", g, res.FlowSetupDelay.Count())
		}
	}
}

func TestBufferReducesControlPathLoad(t *testing.T) {
	// The paper's headline: buffering cuts control path load by ~78.7% in
	// the switch-to-controller direction and ~96% in the reverse.
	noBuf := runStudyA(t, openflow.GranularityNone, 256, 50, 500)
	buf := runStudyA(t, openflow.GranularityPacket, 256, 50, 500)
	if buf.CtrlLoadToControllerMbps > 0.3*noBuf.CtrlLoadToControllerMbps {
		t.Errorf("uplink load %g not <30%% of no-buffer %g",
			buf.CtrlLoadToControllerMbps, noBuf.CtrlLoadToControllerMbps)
	}
	if buf.CtrlLoadToSwitchMbps > 0.2*noBuf.CtrlLoadToSwitchMbps {
		t.Errorf("downlink load %g not <20%% of no-buffer %g",
			buf.CtrlLoadToSwitchMbps, noBuf.CtrlLoadToSwitchMbps)
	}
	// No-buffer control load tracks the sending rate.
	if noBuf.CtrlLoadToControllerMbps < 40 || noBuf.CtrlLoadToControllerMbps > 60 {
		t.Errorf("no-buffer uplink load %g, want ~50 (the sending rate)",
			noBuf.CtrlLoadToControllerMbps)
	}
}

func TestBufferReducesControllerUsageAndDelay(t *testing.T) {
	noBuf := runStudyA(t, openflow.GranularityNone, 256, 50, 500)
	buf := runStudyA(t, openflow.GranularityPacket, 256, 50, 500)
	if buf.ControllerUsagePercent >= noBuf.ControllerUsagePercent {
		t.Errorf("controller usage %g not below no-buffer %g",
			buf.ControllerUsagePercent, noBuf.ControllerUsagePercent)
	}
	if buf.ControllerDelay.Mean() >= noBuf.ControllerDelay.Mean() {
		t.Errorf("controller delay %g not below no-buffer %g",
			buf.ControllerDelay.Mean(), noBuf.ControllerDelay.Mean())
	}
	if buf.FlowSetupDelay.Mean() >= noBuf.FlowSetupDelay.Mean() {
		t.Errorf("setup delay %g not below no-buffer %g",
			buf.FlowSetupDelay.Mean(), noBuf.FlowSetupDelay.Mean())
	}
}

func TestBufferSwitchOverheadSmall(t *testing.T) {
	// Paper Fig. 4: buffering adds only ~5.6% switch CPU.
	noBuf := runStudyA(t, openflow.GranularityNone, 256, 35, 500)
	buf := runStudyA(t, openflow.GranularityPacket, 256, 35, 500)
	if buf.SwitchUsagePercent < noBuf.SwitchUsagePercent {
		t.Errorf("buffered switch usage %g below no-buffer %g; expected small positive overhead",
			buf.SwitchUsagePercent, noBuf.SwitchUsagePercent)
	}
	if buf.SwitchUsagePercent > 1.15*noBuf.SwitchUsagePercent {
		t.Errorf("buffered switch usage %g more than 15%% above no-buffer %g",
			buf.SwitchUsagePercent, noBuf.SwitchUsagePercent)
	}
}

func TestSmallBufferExhaustsAtModerateRate(t *testing.T) {
	// Paper Fig. 8: buffer-16 is exhausted past ~30 Mbps; buffer-256 is not.
	low := runStudyA(t, openflow.GranularityPacket, 16, 20, 500)
	if low.BufferFallbacks != 0 {
		t.Errorf("buffer-16 at 20 Mbps: %d fallbacks, want 0", low.BufferFallbacks)
	}
	high := runStudyA(t, openflow.GranularityPacket, 16, 50, 500)
	if high.BufferFallbacks == 0 {
		t.Error("buffer-16 at 50 Mbps: no fallbacks, expected exhaustion")
	}
	if high.BufferOccupancyMax != 16 {
		t.Errorf("buffer-16 max occupancy = %g, want pegged at 16", high.BufferOccupancyMax)
	}
	big := runStudyA(t, openflow.GranularityPacket, 256, 50, 500)
	if big.BufferFallbacks != 0 {
		t.Errorf("buffer-256 at 50 Mbps: %d fallbacks, want 0", big.BufferFallbacks)
	}
	if big.BufferOccupancyMax >= 256 || big.BufferOccupancyMax <= 16 {
		t.Errorf("buffer-256 max occupancy = %g, want between 16 and 256", big.BufferOccupancyMax)
	}
}

func TestExhaustedBufferDegradesTowardNoBuffer(t *testing.T) {
	small := runStudyA(t, openflow.GranularityPacket, 16, 70, 500)
	big := runStudyA(t, openflow.GranularityPacket, 256, 70, 500)
	if small.CtrlLoadToControllerMbps < 3*big.CtrlLoadToControllerMbps {
		t.Errorf("exhausted buffer-16 load %g not well above buffer-256 %g",
			small.CtrlLoadToControllerMbps, big.CtrlLoadToControllerMbps)
	}
}

func runStudyB(t *testing.T, g openflow.BufferGranularity, rate float64) *Result {
	t.Helper()
	buf := openflow.FlowBufferConfig{Granularity: g, RerequestTimeoutMs: 50}
	tb, err := New(DefaultConfig(buf, 256))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(pktgenConfig(rate), 50, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFlowGranularitySingleRequestPerFlow(t *testing.T) {
	res := runStudyB(t, openflow.GranularityFlow, 70)
	if res.PacketIns != 50 {
		t.Errorf("flow granularity sent %d packet_ins for 50 flows, want 50", res.PacketIns)
	}
	if res.FramesDelivered != 1000 {
		t.Errorf("delivered %d of 1000", res.FramesDelivered)
	}
	pkt := runStudyB(t, openflow.GranularityPacket, 70)
	if pkt.PacketIns <= 60 {
		t.Errorf("packet granularity sent %d packet_ins; expected well above 50 at 70 Mbps", pkt.PacketIns)
	}
}

func TestFlowGranularityReducesLoadAndOccupancy(t *testing.T) {
	flow := runStudyB(t, openflow.GranularityFlow, 70)
	pkt := runStudyB(t, openflow.GranularityPacket, 70)
	if flow.CtrlLoadToControllerMbps >= pkt.CtrlLoadToControllerMbps {
		t.Errorf("flow load %g not below packet load %g",
			flow.CtrlLoadToControllerMbps, pkt.CtrlLoadToControllerMbps)
	}
	if flow.CtrlLoadToSwitchMbps >= pkt.CtrlLoadToSwitchMbps {
		t.Errorf("flow downlink %g not below packet %g",
			flow.CtrlLoadToSwitchMbps, pkt.CtrlLoadToSwitchMbps)
	}
	// Paper Fig. 13: ~71.6% better buffer utilization.
	if flow.BufferOccupancyMean > 0.5*pkt.BufferOccupancyMean {
		t.Errorf("flow occupancy %g not <50%% of packet occupancy %g",
			flow.BufferOccupancyMean, pkt.BufferOccupancyMean)
	}
	if flow.ControllerUsagePercent >= pkt.ControllerUsagePercent {
		t.Errorf("flow controller usage %g not below packet %g",
			flow.ControllerUsagePercent, pkt.ControllerUsagePercent)
	}
}

func TestFlowGranularityNoExtraSwitchOverhead(t *testing.T) {
	// Paper Fig. 11: the proposed mechanism does not increase switch load.
	flow := runStudyB(t, openflow.GranularityFlow, 50)
	pkt := runStudyB(t, openflow.GranularityPacket, 50)
	if flow.SwitchUsagePercent > 1.05*pkt.SwitchUsagePercent {
		t.Errorf("flow switch usage %g above packet %g",
			flow.SwitchUsagePercent, pkt.SwitchUsagePercent)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runStudyA(t, openflow.GranularityPacket, 64, 40, 300)
	b := runStudyA(t, openflow.GranularityPacket, 64, 40, 300)
	if a.CtrlLoadToControllerMbps != b.CtrlLoadToControllerMbps ||
		a.FlowSetupDelay.Mean() != b.FlowSetupDelay.Mean() ||
		a.BufferOccupancyMean != b.BufferOccupancyMean ||
		a.PacketIns != b.PacketIns {
		t.Error("identical configs and seeds produced different results")
	}
}

func TestRunValidation(t *testing.T) {
	tb, err := New(DefaultConfig(openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(nil); err == nil {
		t.Error("Run accepted empty schedule")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}, 16)
	cfg.HostLinkMbps = 0
	if _, err := New(cfg); err == nil {
		t.Error("accepted zero host link bandwidth")
	}
	cfg = DefaultConfig(openflow.FlowBufferConfig{Granularity: 77}, 16)
	if _, err := New(cfg); err == nil {
		t.Error("accepted invalid granularity")
	}
}

func TestTCPEvictionScenario(t *testing.T) {
	// §VI.B: a TCP flow pauses, its rule is evicted by other traffic, and
	// the second burst misses again — the buffer absorbs it.
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}
	cfg := DefaultConfig(buf, 256)
	cfg.Switch.Datapath.TableCapacity = 8
	cfg.Switch.Datapath.EvictionPolicy = flowtable.EvictLRU
	// Idle timeout shorter than the pause also evicts.
	cfg.Forwarder = controller.ForwarderConfig{IdleTimeout: 1}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.TCPEvictionFlow(pktgen.TCPFlowConfig{
		Config:      pktgenConfig(50),
		SrcIP:       netip.MustParseAddr("10.1.0.1"),
		SrcPort:     40000,
		BurstPkts:   5,
		PauseLen:    3 * time.Second,
		SecondBurst: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != int64(len(sched)) {
		t.Errorf("delivered %d of %d TCP segments", res.FramesDelivered, len(sched))
	}
	// Two miss cycles: the SYN and the post-pause restart.
	if res.PacketIns != 2 {
		t.Errorf("packet_ins = %d, want 2 (initial + post-eviction)", res.PacketIns)
	}
}

func TestStudyBZeroFlowSetupWithoutLoss(t *testing.T) {
	// Every multi-packet flow completes with in-order measurable setup and
	// forwarding delays.
	res := runStudyB(t, openflow.GranularityFlow, 35)
	if res.FlowSetupDelay.Count() != 50 || res.FlowForwardingDelay.Count() != 50 {
		t.Fatalf("delay samples = %d/%d, want 50/50",
			res.FlowSetupDelay.Count(), res.FlowForwardingDelay.Count())
	}
	if res.FlowForwardingDelay.Mean() <= res.FlowSetupDelay.Mean() {
		t.Error("forwarding delay not above setup delay for 20-packet flows")
	}
}

func TestSwitchModelExposed(t *testing.T) {
	tb, err := New(DefaultConfig(openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}, 64))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Switch() == nil || tb.Controller() == nil || tb.Capture() == nil || tb.Kernel() == nil {
		t.Error("accessors returned nil")
	}
	sw := switchd.DefaultSimConfig()
	if sw.CPUCores <= 0 {
		t.Error("default sim config invalid")
	}
}

func TestControlLossFlowGranularityRecovers(t *testing.T) {
	// The §V re-request timer is the recovery path for lost control
	// messages: with 10% loss on the control channel, every packet must
	// still come out, at the cost of re-requests.
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 20}
	cfg := DefaultConfig(buf, 256)
	cfg.ControlLossRate = 0.10
	cfg.Drain = 5 * time.Second
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(pktgenConfig(50), 50, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != int64(res.FramesSent) {
		t.Errorf("delivered %d of %d under 10%% control loss", res.FramesDelivered, res.FramesSent)
	}
	if res.Rerequests == 0 {
		t.Error("no re-requests despite control loss; the timeout path never ran")
	}
}

func TestControlLossPacketGranularityLosesPackets(t *testing.T) {
	// The default mechanism has no re-request: a lost packet_in (or its
	// packet_out) strands that packet in the buffer. This is the contrast
	// that motivates Algorithm 1's timeout.
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}
	cfg := DefaultConfig(buf, 256)
	cfg.ControlLossRate = 0.10
	cfg.Drain = 5 * time.Second
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(pktgenConfig(50), 50, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered >= int64(res.FramesSent) {
		t.Errorf("packet granularity delivered everything (%d) under loss; expected stranded packets",
			res.FramesDelivered)
	}
}

func TestPropertyRandomWorkloadsConserved(t *testing.T) {
	// Arbitrary Poisson workloads through any buffer mode: every frame is
	// delivered exactly once (no loss, no duplication) and every flow gets
	// a setup-delay sample.
	modes := []openflow.BufferGranularity{
		openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow,
	}
	for seed := int64(1); seed <= 6; seed++ {
		mode := modes[seed%3]
		buf := openflow.FlowBufferConfig{Granularity: mode, RerequestTimeoutMs: 50}
		cfg := DefaultConfig(buf, 256)
		cfg.Seed = seed
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := pktgenConfig(20 + float64(seed*10))
		pcfg.Seed = seed
		sched, err := pktgen.PoissonFlows(pcfg, rand.New(rand.NewSource(seed)), 15, 6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.FramesDelivered != int64(res.FramesSent) {
			t.Errorf("seed %d (%v): delivered %d of %d", seed, mode, res.FramesDelivered, res.FramesSent)
		}
		if res.FlowSetupDelay.Count() != int64(res.FlowsObserved) {
			t.Errorf("seed %d: setup samples %d for %d flows",
				seed, res.FlowSetupDelay.Count(), res.FlowsObserved)
		}
		if res.FlowSetupDelay.Min() <= 0 {
			t.Errorf("seed %d: non-positive setup delay %g", seed, res.FlowSetupDelay.Min())
		}
	}
}
