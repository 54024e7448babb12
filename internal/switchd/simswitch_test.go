package switchd

import (
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/sim"
)

// fakeController decodes packet_ins and immediately answers with a
// flow_mod + packet_out pair, directly invoking DeliverControl (no link).
type fakeController struct {
	t       *testing.T
	sw      *SimSwitch
	outPort uint16
	seen    []*openflow.PacketIn
	delay   time.Duration
	kernel  *sim.Kernel
	mute    bool // when true, never answer (for re-request tests)
}

func (f *fakeController) deliver(msg []byte) {
	m, xid, err := openflow.Decode(msg)
	if err != nil {
		f.t.Fatalf("controller received garbage: %v", err)
	}
	pi, ok := m.(*openflow.PacketIn)
	if !ok {
		return
	}
	f.seen = append(f.seen, pi)
	if f.mute {
		return
	}
	frame, err := packet.ParseHeaders(pi.Data)
	if err != nil {
		f.t.Fatalf("controller cannot parse payload: %v", err)
	}
	actions := []openflow.Action{&openflow.ActionOutput{Port: f.outPort}}
	fm := openflow.MustEncode(&openflow.FlowMod{
		Match: openflow.ExactMatch(pi.InPort, frame), Command: openflow.FlowModAdd,
		Priority: 100, BufferID: openflow.NoBuffer, Actions: actions,
	}, xid)
	po := &openflow.PacketOut{BufferID: pi.BufferID, InPort: pi.InPort, Actions: actions}
	if pi.BufferID == openflow.NoBuffer {
		po.Data = pi.Data
	}
	pob := openflow.MustEncode(po, xid)
	f.kernel.After(f.delay, func() {
		f.sw.DeliverControl(fm)
		f.sw.DeliverControl(pob)
	})
}

func newSimPair(t *testing.T, g openflow.BufferGranularity, capacity int) (*sim.Kernel, *SimSwitch, *fakeController, *[]uint16) {
	t.Helper()
	k := sim.New(1)
	cfg := DefaultSimConfig()
	cfg.Datapath = Config{
		DatapathID: 1, NumPorts: 2,
		Buffer:         openflow.FlowBufferConfig{Granularity: g, RerequestTimeoutMs: 20},
		BufferCapacity: capacity,
	}
	sw, err := NewSimSwitch(k, cfg)
	if err != nil {
		t.Fatalf("NewSimSwitch: %v", err)
	}
	fc := &fakeController{t: t, sw: sw, outPort: 2, delay: 200 * time.Microsecond, kernel: k}
	sw.SetControlSender(fc.deliver)
	var egress []uint16
	sw.SetTransmit(func(port uint16, frame []byte) { egress = append(egress, port) })
	return k, sw, fc, &egress
}

func TestSimSwitchEndToEndMiss(t *testing.T) {
	k, sw, fc, egress := newSimPair(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 900)
	sw.Ingest(1, frame)
	k.Run()
	if len(fc.seen) != 1 {
		t.Fatalf("controller saw %d packet_ins", len(fc.seen))
	}
	if fc.seen[0].BufferID == openflow.NoBuffer {
		t.Error("buffered switch sent NoBuffer id")
	}
	if len(fc.seen[0].Data) != openflow.DefaultMissSendLen {
		t.Errorf("packet_in payload %dB, want %d", len(fc.seen[0].Data), openflow.DefaultMissSendLen)
	}
	if len(*egress) != 1 || (*egress)[0] != 2 {
		t.Fatalf("egress = %v, want [2]", *egress)
	}
	if sw.ControllerDelay().Count() != 1 {
		t.Errorf("controller delay observations = %d", sw.ControllerDelay().Count())
	}
	if d := sw.ControllerDelay().Mean(); d <= 0 {
		t.Errorf("controller delay = %g", d)
	}
}

func TestSimSwitchHitBypassesController(t *testing.T) {
	k, sw, fc, egress := newSimPair(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 900)
	sw.Ingest(1, frame)
	k.Run()
	// Second identical frame: must hit the installed rule, no new request.
	sw.Ingest(1, frame)
	k.Run()
	if len(fc.seen) != 1 {
		t.Fatalf("controller saw %d packet_ins, want 1", len(fc.seen))
	}
	if len(*egress) != 2 {
		t.Fatalf("egress count = %d, want 2", len(*egress))
	}
}

func TestSimSwitchNoBufferSendsFullPacket(t *testing.T) {
	k, sw, fc, egress := newSimPair(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 900)
	sw.Ingest(1, frame)
	k.Run()
	if len(fc.seen) != 1 {
		t.Fatalf("controller saw %d packet_ins", len(fc.seen))
	}
	if fc.seen[0].BufferID != openflow.NoBuffer {
		t.Error("no-buffer switch sent a buffer id")
	}
	if len(fc.seen[0].Data) != len(frame) {
		t.Errorf("payload %dB, want full %dB", len(fc.seen[0].Data), len(frame))
	}
	if len(*egress) != 1 {
		t.Fatalf("egress = %v", *egress)
	}
}

func TestSimSwitchFlowGranularityOneRequestForBurst(t *testing.T) {
	k, sw, fc, egress := newSimPair(t, openflow.GranularityFlow, 256)
	// 5 packets of the same flow arrive within the control round trip.
	for i := 0; i < 5; i++ {
		frame := testFrame(t, "10.1.0.1", 1000, 500)
		i := i
		k.After(time.Duration(i)*30*time.Microsecond, func() { sw.Ingest(1, frame) })
	}
	k.Run()
	if len(fc.seen) != 1 {
		t.Fatalf("controller saw %d packet_ins, want 1 for the whole burst", len(fc.seen))
	}
	if len(*egress) != 5 {
		t.Fatalf("egress count = %d, want all 5 forwarded", len(*egress))
	}
}

func TestSimSwitchFlowGranularityRerequest(t *testing.T) {
	k, sw, fc, _ := newSimPair(t, openflow.GranularityFlow, 256)
	fc.mute = true // controller never answers
	frame := testFrame(t, "10.1.0.1", 1000, 500)
	sw.Ingest(1, frame)
	// Run 50ms: with a 20ms re-request timeout the switch must have
	// re-sent at least twice.
	k.Drain(50 * time.Millisecond)
	if len(fc.seen) < 3 {
		t.Fatalf("controller saw %d packet_ins, want >= 3 (original + re-requests)", len(fc.seen))
	}
	for i := 1; i < len(fc.seen); i++ {
		if fc.seen[i].BufferID != fc.seen[0].BufferID {
			t.Error("re-request changed the buffer id")
		}
	}
}

func TestSimSwitchEchoAndFeatures(t *testing.T) {
	k := sim.New(1)
	cfg := DefaultSimConfig()
	cfg.Datapath = Config{DatapathID: 7, NumPorts: 2}
	sw, err := NewSimSwitch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replies []openflow.Message
	sw.SetControlSender(func(msg []byte) {
		m, _, err := openflow.Decode(msg)
		if err != nil {
			t.Fatalf("bad reply: %v", err)
		}
		replies = append(replies, m)
	})
	sw.DeliverControl(openflow.MustEncode(&openflow.EchoRequest{Data: []byte("x")}, 5))
	sw.DeliverControl(openflow.MustEncode(&openflow.FeaturesRequest{}, 6))
	sw.DeliverControl(openflow.MustEncode(&openflow.BarrierRequest{}, 7))
	sw.DeliverControl(openflow.MustEncode(&openflow.GetConfigRequest{}, 8))
	sw.DeliverControl(openflow.MustEncode(openflow.EncodeFlowBufferStatsRequest(), 9))
	k.Run()
	if len(replies) != 5 {
		t.Fatalf("replies = %d, want 5", len(replies))
	}
	if fr, ok := replies[1].(*openflow.FeaturesReply); !ok || fr.DatapathID != 7 {
		t.Errorf("features reply = %+v", replies[1])
	}
	if v, ok := replies[4].(*openflow.Vendor); ok {
		payload, err := openflow.ParseVendor(v)
		if err != nil || payload.Stats == nil {
			t.Errorf("stats reply = %+v err %v", payload, err)
		}
	} else {
		t.Errorf("reply 4 = %T", replies[4])
	}
}

func TestSimSwitchRuleExpiryEmitsFlowRemoved(t *testing.T) {
	k := sim.New(1)
	cfg := DefaultSimConfig()
	cfg.Datapath = Config{DatapathID: 1, NumPorts: 2}
	sw, err := NewSimSwitch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var removed []*openflow.FlowRemoved
	sw.SetControlSender(func(msg []byte) {
		m, _, err := openflow.Decode(msg)
		if err != nil {
			return
		}
		if fr, ok := m.(*openflow.FlowRemoved); ok {
			removed = append(removed, fr)
		}
	})
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	parsed, _ := packet.ParseHeaders(frame)
	fm := openflow.MustEncode(&openflow.FlowMod{
		Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
		Priority: 10, HardTimeout: 1, BufferID: openflow.NoBuffer,
		Flags:   openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	sw.DeliverControl(fm)
	k.Drain(2 * time.Second)
	if len(removed) != 1 {
		t.Fatalf("flow_removed count = %d, want 1", len(removed))
	}
	if removed[0].Reason != openflow.RemovedHardTimeout {
		t.Errorf("reason = %d, want hard timeout", removed[0].Reason)
	}
	if sw.Datapath().Table().Len() != 0 {
		t.Errorf("table len = %d after expiry", sw.Datapath().Table().Len())
	}
}

func TestSimSwitchUtilizationGrowsWithLoad(t *testing.T) {
	load := func(n int) float64 {
		k, sw, _, _ := newSimPair(t, openflow.GranularityPacket, 256)
		for i := 0; i < n; i++ {
			frame := testFrame(t, "10.1.0.1", uint16(1000+i), 500)
			i := i
			k.After(time.Duration(i)*100*time.Microsecond, func() { sw.Ingest(1, frame) })
		}
		k.Drain(time.Duration(n) * 100 * time.Microsecond)
		return sw.CPUUtilizationPercent()
	}
	lo, hi := load(10), load(200)
	if hi <= lo {
		t.Errorf("utilization did not grow with load: %g vs %g", lo, hi)
	}
}

func TestSimSwitchConfigValidation(t *testing.T) {
	k := sim.New(1)
	bad := DefaultSimConfig()
	bad.CPUCores = 0
	if _, err := NewSimSwitch(k, bad); err == nil {
		t.Error("accepted zero cores")
	}
	bad = DefaultSimConfig()
	bad.BusMbps = 0
	if _, err := NewSimSwitch(k, bad); err == nil {
		t.Error("accepted zero bus bandwidth")
	}
	bad = DefaultSimConfig()
	bad.MissCost = -time.Second
	if _, err := NewSimSwitch(k, bad); err == nil {
		t.Error("accepted negative cost")
	}
}

func TestSimSwitchGarbageControlMessage(t *testing.T) {
	k, sw, _, _ := newSimPair(t, openflow.GranularityPacket, 16)
	sw.DeliverControl([]byte{1, 2, 3})
	sw.DeliverControl(make([]byte, 12))
	k.Run()
	_, ctrlErrs := sw.Errors()
	if ctrlErrs == 0 {
		t.Error("garbage control messages not counted as errors")
	}
}

func TestSimSwitchBusUtilization(t *testing.T) {
	k, sw, _, _ := newSimPair(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 900)
	sw.Ingest(1, frame)
	k.Drain(10 * time.Millisecond)
	if got := sw.BusUtilizationPercent(10 * time.Millisecond); got <= 0 {
		t.Errorf("bus utilization = %g, want > 0 after a full-packet miss", got)
	}
	if cfg := sw.Datapath().Config(); cfg.NumPorts != 2 {
		t.Errorf("effective config = %+v", cfg)
	}
}
