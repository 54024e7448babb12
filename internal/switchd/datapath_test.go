package switchd

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

func testFrame(t testing.TB, srcIP string, srcPort uint16, payload int) []byte {
	t.Helper()
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr(srcIP),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   srcPort,
		DstPort:   9,
		Payload:   make([]byte, payload),
	}
	wire, err := f.Serialize()
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	return wire
}

func newDP(t *testing.T, buffer openflow.BufferGranularity, capacity int) *Datapath {
	t.Helper()
	dp, err := NewDatapath(Config{
		DatapathID:     1,
		NumPorts:       2,
		Buffer:         openflow.FlowBufferConfig{Granularity: buffer, RerequestTimeoutMs: 50},
		BufferCapacity: capacity,
	})
	if err != nil {
		t.Fatalf("NewDatapath: %v", err)
	}
	return dp
}

func TestDatapathMissThenFlowModThenHit(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 900)

	res, err := dp.HandleFrame(0, 1, frame)
	if err != nil {
		t.Fatalf("HandleFrame: %v", err)
	}
	if res.Miss == nil || res.Matched != nil {
		t.Fatalf("first frame should miss: %+v", res)
	}
	pi := res.Miss.PacketIn
	if pi == nil || pi.BufferID == openflow.NoBuffer {
		t.Fatalf("expected buffered packet_in, got %+v", pi)
	}

	// Controller answers: install rule, then release via packet_out.
	parsed, err := packet.ParseHeaders(frame)
	if err != nil {
		t.Fatal(err)
	}
	fm := &openflow.FlowMod{
		Match:    openflow.ExactMatch(1, parsed),
		Command:  openflow.FlowModAdd,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	cres, err := dp.HandleFlowMod(time.Millisecond, fm)
	if err != nil {
		t.Fatalf("HandleFlowMod: %v", err)
	}
	if len(cres.Outputs) != 0 || cres.Reply != nil {
		t.Fatalf("flow_mod without buffer id produced %+v", cres)
	}
	po := &openflow.PacketOut{
		BufferID: pi.BufferID,
		InPort:   1,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	cres, err = dp.HandlePacketOut(2*time.Millisecond, po)
	if err != nil {
		t.Fatalf("HandlePacketOut: %v", err)
	}
	if len(cres.Outputs) != 1 || cres.Outputs[0].Port != 2 {
		t.Fatalf("packet_out outputs = %+v", cres.Outputs)
	}
	if len(cres.Outputs[0].Frame) != len(frame) {
		t.Errorf("released frame %d bytes, want %d", len(cres.Outputs[0].Frame), len(frame))
	}

	// The same flow now hits the rule.
	res, err = dp.HandleFrame(3*time.Millisecond, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Miss != nil || res.Matched == nil {
		t.Fatalf("second frame should hit: %+v", res)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("hit outputs = %+v", res.Outputs)
	}
}

func TestDatapathFlowModWithBufferIDReleases(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 500)
	res, err := dp.HandleFrame(0, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _ := packet.ParseHeaders(frame)
	fm := &openflow.FlowMod{
		Match:    openflow.ExactMatch(1, parsed),
		Command:  openflow.FlowModAdd,
		Priority: 100,
		BufferID: res.Miss.PacketIn.BufferID, // combined semantics
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	cres, err := dp.HandleFlowMod(time.Millisecond, fm)
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Outputs) != 1 || cres.Outputs[0].Port != 2 {
		t.Fatalf("combined flow_mod outputs = %+v", cres.Outputs)
	}
}

func TestDatapathUnknownBufferIDReturnsError(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	po := &openflow.PacketOut{
		BufferID: 12345,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	cres, err := dp.HandlePacketOut(0, po)
	if err != nil {
		t.Fatalf("HandlePacketOut: %v", err)
	}
	em, ok := cres.Reply.(*openflow.ErrorMsg)
	if !ok || em.ErrType != openflow.ErrTypeBadRequest || em.Code != openflow.ErrCodeBadBufferID {
		t.Fatalf("reply = %+v, want buffer-unknown error", cres.Reply)
	}
}

func TestDatapathPacketOutWithDataNoBuffer(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 100)
	po := &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   1,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
		Data:     frame,
	}
	cres, err := dp.HandlePacketOut(0, po)
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Outputs) != 1 || cres.Outputs[0].Port != 2 {
		t.Fatalf("outputs = %+v", cres.Outputs)
	}
}

func TestDatapathPacketOutDropBuffered(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 100)
	res, err := dp.HandleFrame(0, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	id := res.Miss.PacketIn.BufferID
	// Empty action list drops the buffered packet.
	cres, err := dp.HandlePacketOut(time.Millisecond, &openflow.PacketOut{BufferID: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Outputs) != 0 || cres.Reply != nil {
		t.Fatalf("drop produced %+v", cres)
	}
	// Releasing again fails.
	cres, err = dp.HandlePacketOut(time.Millisecond, &openflow.PacketOut{
		BufferID: id, Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Reply == nil {
		t.Error("double release not rejected")
	}
}

func TestDatapathFloodAndAllPorts(t *testing.T) {
	dp, err := NewDatapath(Config{NumPorts: 4})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	outs, err := dp.applyActions(0, 2, frame, []openflow.Action{
		&openflow.ActionOutput{Port: openflow.PortFlood},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("flood produced %d outputs, want 3 (all but ingress)", len(outs))
	}
	for _, o := range outs {
		if o.Port == 2 {
			t.Error("flood echoed to ingress port")
		}
	}
	outs, err = dp.applyActions(0, 2, frame, []openflow.Action{
		&openflow.ActionOutput{Port: openflow.PortAll},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("all produced %d outputs, want 4", len(outs))
	}
}

func TestDatapathInPortOutput(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	outs, err := dp.applyActions(0, 1, frame, []openflow.Action{
		&openflow.ActionOutput{Port: openflow.PortInPort},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 1 {
		t.Fatalf("in_port output = %+v", outs)
	}
}

// TestDatapathEnqueueCarriesQueueID pins the ENQUEUE action: the frame
// leaves on the action's port tagged with its queue id, while a plain
// output uses the default queue 0.
func TestDatapathEnqueueCarriesQueueID(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	outs, err := dp.applyActions(0, 1, frame, []openflow.Action{
		&openflow.ActionEnqueue{Port: 2, QueueID: 7},
		&openflow.ActionOutput{Port: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0].Port != 2 || outs[0].Queue != 7 || outs[1].Port != 2 || outs[1].Queue != 0 {
		t.Fatalf("enqueue outputs = %+v, want port 2 on queue 7, then queue 0", outs)
	}
}

func TestDatapathRewriteActions(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	newDst := packet.MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	outs, err := dp.applyActions(0, 1, frame, []openflow.Action{
		&openflow.ActionSetDLDst{Addr: newDst},
		&openflow.ActionSetNWTOS{TOS: 0x2e},
		&openflow.ActionOutput{Port: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	got, err := packet.Parse(outs[0].Frame)
	if err != nil {
		t.Fatalf("rewritten frame unparseable: %v", err)
	}
	if got.DstMAC != newDst {
		t.Errorf("dst mac = %v, want %v", got.DstMAC, newDst)
	}
	if got.TOS != 0x2e {
		t.Errorf("tos = 0x%02x, want 0x2e", got.TOS)
	}
	// Checksum must have been fixed after the TOS rewrite.
	if err := packet.VerifyChecksums(outs[0].Frame); err != nil {
		t.Errorf("rewritten frame checksums: %v", err)
	}
	// Original frame untouched.
	orig, err := packet.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if orig.DstMAC == newDst {
		t.Error("rewrite mutated the original frame")
	}
}

func TestDatapathBadPorts(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	if _, err := dp.HandleFrame(0, 0, frame); !errors.Is(err, ErrBadPort) {
		t.Errorf("in_port 0: %v", err)
	}
	if _, err := dp.HandleFrame(0, 9, frame); !errors.Is(err, ErrBadPort) {
		t.Errorf("in_port 9: %v", err)
	}
	if _, err := dp.applyActions(0, 1, frame, []openflow.Action{
		&openflow.ActionOutput{Port: 9},
	}, nil); !errors.Is(err, ErrBadPort) {
		t.Errorf("output 9: %v", err)
	}
}

func TestDatapathFlowModDelete(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	parsed, _ := packet.ParseHeaders(frame)
	match := openflow.ExactMatch(1, parsed)
	if _, err := dp.HandleFlowMod(0, &openflow.FlowMod{
		Match: match, Command: openflow.FlowModAdd, Priority: 10,
		BufferID: openflow.NoBuffer,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if dp.Table().Len() != 1 {
		t.Fatalf("table len = %d", dp.Table().Len())
	}
	cres, err := dp.HandleFlowMod(time.Millisecond, &openflow.FlowMod{
		Match: match, Command: openflow.FlowModDeleteStrict, Priority: 10,
		BufferID: openflow.NoBuffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Removed) != 1 || dp.Table().Len() != 0 {
		t.Fatalf("delete removed %d, table %d", len(cres.Removed), dp.Table().Len())
	}
}

func TestDatapathFlowModBadCommand(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 16)
	cres, err := dp.HandleFlowMod(0, &openflow.FlowMod{Command: 99, BufferID: openflow.NoBuffer})
	if err != nil {
		t.Fatal(err)
	}
	em, ok := cres.Reply.(*openflow.ErrorMsg)
	if !ok || em.Code != openflow.ErrCodeBadCommand {
		t.Fatalf("reply = %+v", cres.Reply)
	}
}

func TestDatapathTableFullError(t *testing.T) {
	dp, err := NewDatapath(Config{
		NumPorts:       2,
		TableCapacity:  1,
		EvictionPolicy: flowtable.EvictNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(port uint16) *openflow.FlowMod {
		frame := testFrame(t, "10.1.0.1", port, 64)
		parsed, _ := packet.ParseHeaders(frame)
		return &openflow.FlowMod{
			Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 10, BufferID: openflow.NoBuffer,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}
	}
	if _, err := dp.HandleFlowMod(0, mk(1)); err != nil {
		t.Fatal(err)
	}
	cres, err := dp.HandleFlowMod(0, mk(2))
	if err != nil {
		t.Fatal(err)
	}
	em, ok := cres.Reply.(*openflow.ErrorMsg)
	if !ok || em.Code != openflow.ErrCodeAllTablesFull {
		t.Fatalf("reply = %+v, want all-tables-full", cres.Reply)
	}
}

func TestDatapathLRUEvictionEmitsRemoval(t *testing.T) {
	dp, err := NewDatapath(Config{
		NumPorts:       2,
		TableCapacity:  1,
		EvictionPolicy: flowtable.EvictLRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(port uint16, flags uint16) *openflow.FlowMod {
		frame := testFrame(t, "10.1.0.1", port, 64)
		parsed, _ := packet.ParseHeaders(frame)
		return &openflow.FlowMod{
			Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 10, BufferID: openflow.NoBuffer, Flags: flags,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}
	}
	if _, err := dp.HandleFlowMod(0, mk(1, openflow.FlowModFlagSendFlowRem)); err != nil {
		t.Fatal(err)
	}
	cres, err := dp.HandleFlowMod(time.Millisecond, mk(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Removed) != 1 {
		t.Fatalf("removed = %d, want 1", len(cres.Removed))
	}
	fr := dp.FlowRemovedFor(cres.Removed[0])
	if fr == nil || fr.Reason != openflow.RemovedEviction {
		t.Fatalf("flow_removed = %+v", fr)
	}
	// A rule without the flag produces no notification.
	cres, err = dp.HandleFlowMod(2*time.Millisecond, mk(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fr := dp.FlowRemovedFor(cres.Removed[0]); fr != nil {
		t.Error("flow_removed produced for rule without SEND_FLOW_REM")
	}
}

func TestDatapathFeatures(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 64)
	fr := dp.Features()
	if fr.DatapathID != 1 || fr.NBuffers != 64 || len(fr.Ports) != 2 {
		t.Fatalf("features = %+v", fr)
	}
	dpNone := newDP(t, openflow.GranularityNone, 64)
	if got := dpNone.Features().NBuffers; got != 0 {
		t.Errorf("no-buffer NBuffers = %d, want 0", got)
	}
}

func TestDatapathConfigValidation(t *testing.T) {
	if _, err := NewDatapath(Config{NumPorts: -1}); err == nil {
		t.Error("accepted negative ports")
	}
	if _, err := NewDatapath(Config{
		NumPorts: 2,
		Buffer:   openflow.FlowBufferConfig{Granularity: 99},
	}); err == nil {
		t.Error("accepted invalid granularity")
	}
}

func TestDatapathStatsCounters(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 400)
	if _, err := dp.HandleFrame(0, 1, frame); err != nil {
		t.Fatal(err)
	}
	rx, rxB, _, _, misses := dp.Stats()
	if rx != 1 || rxB != uint64(len(frame)) || misses != 1 {
		t.Errorf("stats = rx %d/%dB misses %d", rx, rxB, misses)
	}
}

// parseForTest exposes header parsing to the agent timer tests.
func parseForTest(frame []byte) (*packet.Frame, error) {
	return packet.ParseHeaders(frame)
}
