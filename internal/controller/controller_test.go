package controller

import (
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/sim"
)

func testPacketIn(t *testing.T, bufferID uint32, truncateTo int) *openflow.PacketIn {
	t.Helper()
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr("10.1.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   1000,
		DstPort:   9,
		Payload:   make([]byte, 900),
	}
	wire, err := f.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	data := wire
	if truncateTo > 0 && truncateTo < len(wire) {
		data = wire[:truncateTo]
	}
	return &openflow.PacketIn{
		BufferID: bufferID,
		TotalLen: uint16(len(wire)),
		InPort:   1,
		Reason:   openflow.ReasonNoMatch,
		Data:     data,
	}
}

func defaultRoutes() []Route {
	return []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: 2},
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Port: 1},
	}
}

func TestForwarderAnswersWithFlowModAndPacketOut(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	pi := testPacketIn(t, 42, 128)
	msgs, err := f.HandlePacketIn(pi, 7)
	if err != nil {
		t.Fatalf("HandlePacketIn: %v", err)
	}
	if len(msgs) != 2 {
		t.Fatalf("replies = %d, want flow_mod + packet_out", len(msgs))
	}
	fm, ok := msgs[0].(*openflow.FlowMod)
	if !ok {
		t.Fatalf("first reply = %T", msgs[0])
	}
	if fm.BufferID != openflow.NoBuffer {
		t.Error("flow_mod carries the buffer id; the pair protocol must not")
	}
	if out := fm.Actions[0].(*openflow.ActionOutput); out.Port != 2 {
		t.Errorf("rule output port = %d, want 2", out.Port)
	}
	po, ok := msgs[1].(*openflow.PacketOut)
	if !ok {
		t.Fatalf("second reply = %T", msgs[1])
	}
	if po.BufferID != 42 {
		t.Errorf("packet_out buffer id = %d, want 42", po.BufferID)
	}
	if len(po.Data) != 0 {
		t.Error("buffered packet_out must not carry the packet")
	}
}

func TestForwarderNoBufferEchoesFullPacket(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	pi := testPacketIn(t, openflow.NoBuffer, 0)
	msgs, err := f.HandlePacketIn(pi, 7)
	if err != nil {
		t.Fatal(err)
	}
	po := msgs[1].(*openflow.PacketOut)
	if len(po.Data) != len(pi.Data) {
		t.Errorf("packet_out data = %dB, want full %dB", len(po.Data), len(pi.Data))
	}
}

func TestForwarderCombinedFlowMod(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes(), CombinedFlowMod: true})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := f.HandlePacketIn(testPacketIn(t, 42, 128), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("combined mode replies = %d, want 1", len(msgs))
	}
	fm := msgs[0].(*openflow.FlowMod)
	if fm.BufferID != 42 {
		t.Errorf("combined flow_mod buffer id = %d", fm.BufferID)
	}
	// Unbuffered requests still need the packet_out path.
	msgs, err = f.HandlePacketIn(testPacketIn(t, openflow.NoBuffer, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("combined mode with NoBuffer = %d messages, want 2", len(msgs))
	}
}

func TestForwarderLongestPrefixWins(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Port: 1},
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.lookupPort(netip.MustParseAddr("10.0.0.9")); got != 2 {
		t.Errorf("port = %d, want 2 (longest prefix)", got)
	}
	if got := f.lookupPort(netip.MustParseAddr("10.9.0.9")); got != 1 {
		t.Errorf("port = %d, want 1", got)
	}
	if got := f.lookupPort(netip.MustParseAddr("192.168.0.1")); got != openflow.PortFlood {
		t.Errorf("port = %d, want flood", got)
	}
	_, flooded := f.Stats()
	if flooded != 1 {
		t.Errorf("flooded = %d, want 1", flooded)
	}
}

func TestForwarderTimeoutsAndFlags(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{
		Routes: defaultRoutes(), IdleTimeout: 5, HardTimeout: 60,
		Priority: 7, RequestFlowRemoved: true, MatchFlowOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := f.HandlePacketIn(testPacketIn(t, 42, 128), 7)
	if err != nil {
		t.Fatal(err)
	}
	fm := msgs[0].(*openflow.FlowMod)
	if fm.IdleTimeout != 5 || fm.HardTimeout != 60 || fm.Priority != 7 {
		t.Errorf("flow_mod params = %+v", fm)
	}
	if fm.Flags&openflow.FlowModFlagSendFlowRem == 0 {
		t.Error("SEND_FLOW_REM not set")
	}
	if fm.Match.Wildcards&openflow.WildcardInPort == 0 {
		t.Error("flow-only match should wildcard in_port")
	}
}

func TestForwarderRejectsGarbagePayload(t *testing.T) {
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.HandlePacketIn(&openflow.PacketIn{Data: []byte{1, 2, 3}}, 1); err == nil {
		t.Error("accepted unparseable payload")
	}
}

func TestForwarderConfigValidation(t *testing.T) {
	if _, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.Prefix{}, Port: 1},
	}}); err == nil {
		t.Error("accepted invalid prefix")
	}
	if _, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Port: 0},
	}}); err == nil {
		t.Error("accepted port 0")
	}
	if _, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("::/0"), Port: 1},
	}}); err == nil {
		t.Error("accepted IPv6 prefix")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{Base: 10 * time.Microsecond, PerByte: 100 * time.Nanosecond}
	if got := c.Cost(100, 50); got != 10*time.Microsecond+15*time.Microsecond {
		t.Errorf("Cost = %v", got)
	}
}

func TestSimControllerAnswersPacketIn(t *testing.T) {
	k := sim.New(1)
	f, err := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewSimController(k, DefaultSimConfig(), f)
	if err != nil {
		t.Fatal(err)
	}
	var sent []openflow.Message
	var sentXids []uint32
	_, deliver := ctl.AttachConn(func(msg []byte) {
		m, xid, err := openflow.Decode(msg)
		if err != nil {
			t.Fatalf("controller emitted garbage: %v", err)
		}
		sent = append(sent, m)
		sentXids = append(sentXids, xid)
	})
	pi := openflow.MustEncode(testPacketIn(t, 42, 128), 77)
	deliver(pi)
	k.Run()
	if len(sent) != 2 {
		t.Fatalf("sent = %d messages, want 2", len(sent))
	}
	if sent[0].Type() != openflow.TypeFlowMod || sent[1].Type() != openflow.TypePacketOut {
		t.Errorf("types = %v, %v", sent[0].Type(), sent[1].Type())
	}
	if sentXids[0] != 77 || sentXids[1] != 77 {
		t.Errorf("xids = %v, want echo of 77", sentXids)
	}
	if h, e := ctl.Handled(); h != 1 || e != 0 {
		t.Errorf("handled/errors = %d/%d", h, e)
	}
	if ctl.CPUUtilizationPercent() <= 0 {
		t.Error("no CPU time accounted")
	}
}

func TestSimControllerEchoAndHello(t *testing.T) {
	k := sim.New(1)
	f, _ := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	ctl, err := NewSimController(k, DefaultSimConfig(), f)
	if err != nil {
		t.Fatal(err)
	}
	var types []openflow.MsgType
	_, deliver := ctl.AttachConn(func(msg []byte) {
		m, _, _ := openflow.Decode(msg)
		types = append(types, m.Type())
	})
	deliver(openflow.MustEncode(&openflow.EchoRequest{Data: []byte("hi")}, 1))
	deliver(openflow.MustEncode(&openflow.Hello{}, 2))
	deliver(openflow.MustEncode(&openflow.BarrierReply{}, 3)) // consumed silently
	k.Run()
	// Replies to independent requests may complete in either order on a
	// multi-core controller; check the set.
	count := map[openflow.MsgType]int{}
	for _, ty := range types {
		count[ty]++
	}
	if len(types) != 2 || count[openflow.TypeEchoReply] != 1 || count[openflow.TypeHello] != 1 {
		t.Errorf("types = %v", types)
	}
}

func TestSimControllerGarbageCounted(t *testing.T) {
	k := sim.New(1)
	f, _ := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	ctl, err := NewSimController(k, DefaultSimConfig(), f)
	if err != nil {
		t.Fatal(err)
	}
	_, deliver := ctl.AttachConn(nil)
	deliver([]byte{9, 9, 9})
	k.Run()
	if _, e := ctl.Handled(); e != 1 {
		t.Errorf("errors = %d, want 1", e)
	}
}

func TestSimControllerValidation(t *testing.T) {
	k := sim.New(1)
	f, _ := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
	if _, err := NewSimController(k, SimConfig{CPUCores: 0, Cost: DefaultCostModel()}, f); err == nil {
		t.Error("accepted zero cores")
	}
	if _, err := NewSimController(k, DefaultSimConfig(), nil); err == nil {
		t.Error("accepted nil app")
	}
	if _, err := NewSimController(k, SimConfig{CPUCores: 1, Cost: CostModel{Base: -1}}, f); err == nil {
		t.Error("accepted negative cost")
	}
}

func TestSimControllerProcessingDelayScalesWithSize(t *testing.T) {
	// A full-packet packet_in must take longer to answer than a truncated
	// one: this is the mechanism behind the paper's controller-delay gap.
	answerTime := func(truncate int, bufferID uint32) time.Duration {
		k := sim.New(1)
		f, _ := NewReactiveForwarder(ForwarderConfig{Routes: defaultRoutes()})
		ctl, err := NewSimController(k, DefaultSimConfig(), f)
		if err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		_, deliver := ctl.AttachConn(func(msg []byte) { done = k.Now() })
		deliver(openflow.MustEncode(testPacketIn(t, bufferID, truncate), 1))
		k.Run()
		return done
	}
	full := answerTime(0, openflow.NoBuffer)
	trunc := answerTime(128, 42)
	if full <= trunc {
		t.Errorf("full-packet answer %v not slower than truncated %v", full, trunc)
	}
}
