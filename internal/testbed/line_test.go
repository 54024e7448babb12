package testbed

import (
	"fmt"
	"testing"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/topo"
)

// runLine runs single-packet flows across a line of switches: the fabric's
// "line:n" topology (Host0 — SW1 — … — SWn — Host1) under one controller
// and hop-by-hop installs, where every hop misses independently.
func runLine(t *testing.T, g openflow.BufferGranularity, switches int, rate float64, flows int) *FabricResult {
	t.Helper()
	_, res := runFabric(t, fmt.Sprintf("line:%d", switches), g, FabricOptions{}, rate, flows)
	return res
}

func TestLineDeliversEndToEnd(t *testing.T) {
	for _, switches := range []int{1, 2, 3} {
		res := runLine(t, openflow.GranularityPacket, switches, 40, 100)
		if res.FramesDelivered != 100 {
			t.Errorf("%d switches: delivered %d of 100", switches, res.FramesDelivered)
		}
		if res.FlowSetupDelay.Count() != 100 {
			t.Errorf("%d switches: setup samples = %d", switches, res.FlowSetupDelay.Count())
		}
	}
}

func TestLineRequestAmplification(t *testing.T) {
	// Every hop misses independently: n switches cost n packet_ins per
	// flow.
	one := runLine(t, openflow.GranularityPacket, 1, 30, 100)
	three := runLine(t, openflow.GranularityPacket, 3, 30, 100)
	if one.PacketIns != 100 {
		t.Errorf("1 switch: packet_ins = %d, want 100", one.PacketIns)
	}
	if three.PacketIns != 300 {
		t.Errorf("3 switches: packet_ins = %d, want 300", three.PacketIns)
	}
	// And the end-to-end setup delay grows with hops.
	if three.FlowSetupDelay.Mean() <= one.FlowSetupDelay.Mean() {
		t.Errorf("3-hop setup %g not above 1-hop %g",
			three.FlowSetupDelay.Mean(), one.FlowSetupDelay.Mean())
	}
}

func TestLineBufferBenefitCompounds(t *testing.T) {
	noBuf := runLine(t, openflow.GranularityNone, 3, 40, 200)
	buf := runLine(t, openflow.GranularityPacket, 3, 40, 200)
	if buf.CtrlLoadToControllerMbps > 0.3*noBuf.CtrlLoadToControllerMbps {
		t.Errorf("3-hop buffered load %g not well below no-buffer %g",
			buf.CtrlLoadToControllerMbps, noBuf.CtrlLoadToControllerMbps)
	}
	if buf.FramesDelivered != noBuf.FramesDelivered {
		t.Errorf("delivery mismatch: %d vs %d", buf.FramesDelivered, noBuf.FramesDelivered)
	}
}

func TestLineFlowGranularityAcrossHops(t *testing.T) {
	// Flow granularity still sends exactly one request per flow per hop on
	// the multi-packet workload.
	g := buildGraph(t, "line:2")
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50}
	fb, err := NewFabric(DefaultConfig(buf, 256), FabricOptions{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(fabricPktgen(g, 60, 1), 20, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != int64(len(sched)) {
		t.Fatalf("delivered %d of %d", res.FramesDelivered, len(sched))
	}
	if res.PacketIns != 40 { // 20 flows × 2 hops
		t.Errorf("packet_ins = %d, want 40", res.PacketIns)
	}
}

func TestLineSingleSwitchMatchesPacketCounts(t *testing.T) {
	// A 1-switch line is the Fig. 1 topology; the Testbed wrapper must
	// report what the fabric it wraps measured.
	line := runLine(t, openflow.GranularityPacket, 1, 40, 150)
	single := runStudyA(t, openflow.GranularityPacket, 256, 40, 150)
	if line.PacketIns != single.PacketIns {
		t.Errorf("packet_ins: line %d vs single %d", line.PacketIns, single.PacketIns)
	}
	if line.FramesDelivered != single.FramesDelivered {
		t.Errorf("delivered: line %d vs single %d", line.FramesDelivered, single.FramesDelivered)
	}
}

func TestLineValidation(t *testing.T) {
	if _, err := topo.ParseSpec("line:0"); err == nil {
		t.Error(`ParseSpec("line:0") succeeded`)
	}
	buf := openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}
	fb, err := NewFabric(DefaultConfig(buf, 16), FabricOptions{Graph: buildGraph(t, "line:2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Run(nil); err == nil {
		t.Error("Run(nil) succeeded")
	}
	if len(fb.Switches()) != 2 || len(fb.Controllers()) != 1 || len(fb.Capture()) != 2 {
		t.Error("accessors inconsistent")
	}
}
