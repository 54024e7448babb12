package openflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"sdnbuffer/internal/packet"
)

func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	b, err := Encode(m, xid)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Type(), err)
	}
	if len(b) != EncodedLen(m) {
		t.Fatalf("EncodedLen(%v) = %d, encoded %d", m.Type(), EncodedLen(m), len(b))
	}
	got, gotXid, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	if gotXid != xid {
		t.Errorf("xid = %d, want %d", gotXid, xid)
	}
	if got.Type() != m.Type() {
		t.Errorf("type = %v, want %v", got.Type(), m.Type())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{}, 1)
	if _, ok := got.(*Hello); !ok {
		t.Errorf("decoded %T, want *Hello", got)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	req := &EchoRequest{Data: []byte("ping")}
	got := roundTrip(t, req, 2).(*EchoRequest)
	if !bytes.Equal(got.Data, req.Data) {
		t.Errorf("data = %q, want %q", got.Data, req.Data)
	}
	rep := &EchoReply{Data: []byte("pong")}
	gotRep := roundTrip(t, rep, 3).(*EchoReply)
	if !bytes.Equal(gotRep.Data, rep.Data) {
		t.Errorf("data = %q, want %q", gotRep.Data, rep.Data)
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	m := &ErrorMsg{ErrType: ErrTypeBadRequest, Code: ErrCodeBadBufferID, Data: []byte{1, 2, 3}}
	got := roundTrip(t, m, 4).(*ErrorMsg)
	if got.ErrType != m.ErrType || got.Code != m.Code || !bytes.Equal(got.Data, m.Data) {
		t.Errorf("got %+v, want %+v", got, m)
	}
	if got.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	m := &FeaturesReply{
		DatapathID:   0x00004e756d626572,
		NBuffers:     256,
		NTables:      1,
		Capabilities: CapFlowStats | CapPortStats,
		Actions:      1,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: packet.MAC{2, 0, 0, 0, 0, 1}, Name: "eth1", Curr: 0x40},
			{PortNo: 2, HWAddr: packet.MAC{2, 0, 0, 0, 0, 2}, Name: "eth2", State: 1},
		},
	}
	got := roundTrip(t, m, 5).(*FeaturesReply)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestFeaturesReplyLongPortNameTruncated(t *testing.T) {
	m := &FeaturesReply{Ports: []PhyPort{{PortNo: 1, Name: "a-very-long-port-name-exceeding"}}}
	got := roundTrip(t, m, 6).(*FeaturesReply)
	if len(got.Ports[0].Name) > 15 {
		t.Errorf("name %q longer than 15 bytes", got.Ports[0].Name)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	set := &SetConfig{Config: SwitchConfig{Flags: 0, MissSendLen: 128}}
	got := roundTrip(t, set, 7).(*SetConfig)
	if got.Config != set.Config {
		t.Errorf("got %+v, want %+v", got.Config, set.Config)
	}
	rep := &GetConfigReply{Config: SwitchConfig{MissSendLen: 0xffff}}
	gotRep := roundTrip(t, rep, 8).(*GetConfigReply)
	if gotRep.Config != rep.Config {
		t.Errorf("got %+v, want %+v", gotRep.Config, rep.Config)
	}
	roundTrip(t, &GetConfigRequest{}, 9)
	roundTrip(t, &FeaturesRequest{}, 10)
	roundTrip(t, &BarrierRequest{}, 11)
	roundTrip(t, &BarrierReply{}, 12)
}

func TestPacketInRoundTrip(t *testing.T) {
	m := &PacketIn{
		BufferID: 42,
		TotalLen: 1000,
		InPort:   1,
		Reason:   ReasonNoMatch,
		Data:     bytes.Repeat([]byte{0xaa}, 128),
	}
	got := roundTrip(t, m, 13).(*PacketIn)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestPacketInSizeWithAndWithoutBuffer(t *testing.T) {
	full := &PacketIn{BufferID: NoBuffer, TotalLen: 1000, Data: make([]byte, 1000)}
	buffered := &PacketIn{BufferID: 7, TotalLen: 1000, Data: make([]byte, DefaultMissSendLen)}
	if EncodedLen(full) != HeaderLen+10+1000 {
		t.Errorf("full packet_in length = %d", EncodedLen(full))
	}
	if EncodedLen(buffered) != HeaderLen+10+128 {
		t.Errorf("buffered packet_in length = %d", EncodedLen(buffered))
	}
	// The buffered request must be much smaller: that is the paper's point.
	if EncodedLen(buffered)*4 > EncodedLen(full) {
		t.Errorf("buffered packet_in (%dB) not substantially smaller than full (%dB)",
			EncodedLen(buffered), EncodedLen(full))
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		m    *PacketOut
	}{
		{
			"buffered release",
			&PacketOut{BufferID: 9, InPort: 1, Actions: []Action{&ActionOutput{Port: 2, MaxLen: 0}}},
		},
		{
			"full packet",
			&PacketOut{BufferID: NoBuffer, InPort: 1,
				Actions: []Action{&ActionOutput{Port: 2}}, Data: bytes.Repeat([]byte{1}, 64)},
		},
		{
			"drop (no actions)",
			&PacketOut{BufferID: 3, InPort: PortNone},
		},
		{
			"multiple actions",
			&PacketOut{BufferID: 3, InPort: 1, Actions: []Action{
				&ActionSetDLDst{Addr: packet.MAC{1, 2, 3, 4, 5, 6}},
				&ActionSetDLSrc{Addr: packet.MAC{6, 5, 4, 3, 2, 1}},
				&ActionSetNWTOS{TOS: 0x2e},
				&ActionEnqueue{Port: 4, QueueID: 2},
				&ActionOutput{Port: 4},
			}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.m, 14).(*PacketOut)
			if !reflect.DeepEqual(got, tt.m) {
				t.Errorf("got %+v, want %+v", got, tt.m)
			}
		})
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	m := &FlowMod{
		Match: Match{
			Wildcards: WildcardAll &^ (WildcardNWSrcAll | WildcardTPDst),
			NWSrc:     netip.MustParseAddr("10.1.2.3"),
			TPDst:     443,
		},
		Cookie:      0xfeedface,
		Command:     FlowModAdd,
		IdleTimeout: 5,
		HardTimeout: 30,
		Priority:    100,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Flags:       FlowModFlagSendFlowRem,
		Actions:     []Action{&ActionOutput{Port: 2, MaxLen: 0xffff}},
	}
	got := roundTrip(t, m, 15).(*FlowMod)
	if got.Cookie != m.Cookie || got.Command != m.Command || got.Priority != m.Priority {
		t.Errorf("fields mismatch: got %+v", got)
	}
	if !got.Match.Equal(&m.Match) {
		t.Errorf("match mismatch: got %v, want %v", got.Match.String(), m.Match.String())
	}
	if !reflect.DeepEqual(got.Actions, m.Actions) {
		t.Errorf("actions mismatch: %+v", got.Actions)
	}
}

func TestFlowModWireSize(t *testing.T) {
	m := &FlowMod{Actions: []Action{&ActionOutput{Port: 2}}}
	// ofp_flow_mod is 72 bytes incl. header, plus an 8-byte output action.
	if got := EncodedLen(m); got != 80 {
		t.Errorf("flow_mod wire length = %d, want 80", got)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	m := &FlowRemoved{
		Match:       ExactMatchForTest(),
		Cookie:      1,
		Priority:    10,
		Reason:      RemovedIdleTimeout,
		DurationSec: 30,
		DurationNs:  500,
		IdleTimeout: 5,
		PacketCount: 100,
		ByteCount:   100000,
	}
	got := roundTrip(t, m, 16).(*FlowRemoved)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	m := &PortStatus{Reason: PortReasonModify, Desc: PhyPort{PortNo: 3, Name: "eth3"}}
	got := roundTrip(t, m, 17).(*PortStatus)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

// ExactMatchForTest builds a deterministic non-trivial match for tests.
func ExactMatchForTest() Match {
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr("10.0.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   1234,
		DstPort:   80,
	}
	return ExactMatch(1, f)
}

func TestDecodeErrors(t *testing.T) {
	valid := MustEncode(&Hello{}, 1)

	short := valid[:4]
	if _, _, err := Decode(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame error = %v, want ErrTruncated", err)
	}

	badVer := bytes.Clone(valid)
	badVer[0] = 0x04
	if _, _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v, want ErrBadVersion", err)
	}

	badLen := bytes.Clone(valid)
	binary.BigEndian.PutUint16(badLen[2:4], 100)
	if _, _, err := Decode(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length error = %v, want ErrBadLength", err)
	}

	badType := bytes.Clone(valid)
	badType[1] = 200
	if _, _, err := Decode(badType); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type error = %v, want ErrUnknownType", err)
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	// Craft a packet_in frame whose header claims a body shorter than the
	// packet_in fixed fields.
	frame := make([]byte, HeaderLen+4)
	frame[0] = Version
	frame[1] = byte(TypePacketIn)
	binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
	if _, _, err := Decode(frame); err == nil {
		t.Error("Decode accepted truncated packet_in body")
	}
}

func TestReaderReadsStreamedMessages(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{},
		&PacketIn{BufferID: 1, TotalLen: 100, InPort: 1, Data: []byte{1, 2, 3}},
		&BarrierReply{},
	}
	for i, m := range msgs {
		if err := WriteMessage(&buf, m, uint32(i)); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, xid, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage %d: %v", i, err)
		}
		if got.Type() != want.Type() || xid != uint32(i) {
			t.Errorf("message %d: type %v xid %d", i, got.Type(), xid)
		}
	}
	if _, _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("after stream end: %v, want io.EOF", err)
	}
}

func TestReaderRejectsOversizedLength(t *testing.T) {
	hdr := make([]byte, HeaderLen)
	hdr[0] = Version
	binary.BigEndian.PutUint16(hdr[2:4], 4) // < HeaderLen
	if _, _, err := NewReader(bytes.NewReader(hdr)).ReadMessage(); !errors.Is(err, ErrBadLength) {
		t.Errorf("undersized length error = %v", err)
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	b := MustEncode(&PacketIn{BufferID: 1, Data: make([]byte, 100)}, 1)
	r := NewReader(bytes.NewReader(b[:len(b)-10]))
	if _, _, err := r.ReadMessage(); err == nil {
		t.Error("ReadMessage accepted truncated body")
	}
}

func TestMatchMatches(t *testing.T) {
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr("10.0.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   1234,
		DstPort:   80,
	}
	exact := ExactMatch(1, f)
	if !exact.Matches(1, f) {
		t.Error("exact match rejected its own frame")
	}
	if exact.Matches(2, f) {
		t.Error("exact match accepted wrong in_port")
	}
	other := *f
	other.SrcIP = netip.MustParseAddr("10.0.0.99")
	if exact.Matches(1, &other) {
		t.Error("exact match accepted wrong nw_src")
	}

	all := MatchAll()
	if !all.Matches(7, f) || !all.Matches(1, &other) {
		t.Error("wildcard-all match rejected a frame")
	}

	flow := FlowMatch(f.Key())
	if !flow.Matches(1, f) || !flow.Matches(9, f) {
		t.Error("flow match must ignore in_port")
	}
	if flow.Matches(1, &other) {
		t.Error("flow match accepted different 5-tuple")
	}
}

func TestMatchString(t *testing.T) {
	all := MatchAll()
	if got := all.String(); got != "any" {
		t.Errorf("MatchAll().String() = %q, want \"any\"", got)
	}
	m := FlowMatch(packet.FlowKey{
		SrcIP: netip.MustParseAddr("1.2.3.4"), DstIP: netip.MustParseAddr("5.6.7.8"),
		SrcPort: 10, DstPort: 20, Proto: packet.ProtoTCP,
	})
	s := m.String()
	for _, want := range []string{"nw_src=1.2.3.4", "nw_dst=5.6.7.8", "tp_src=10", "tp_dst=20", "nw_proto=6"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestMatchEqual(t *testing.T) {
	a := ExactMatchForTest()
	b := ExactMatchForTest()
	if !a.Equal(&b) {
		t.Error("identical matches not Equal")
	}
	b.TPDst = 81
	if a.Equal(&b) {
		t.Error("different tp_dst considered Equal")
	}
	// Wildcarded fields must not affect equality.
	c := MatchAll()
	d := MatchAll()
	d.NWSrc = netip.MustParseAddr("9.9.9.9")
	if !c.Equal(&d) {
		t.Error("wildcarded field affected Equal")
	}
}

func TestVendorFlowBufferConfigRoundTrip(t *testing.T) {
	cfg := FlowBufferConfig{
		Granularity:         GranularityFlow,
		RerequestTimeoutMs:  50,
		MaxPacketsPerFlow:   64,
		MaxRerequests:       8,
		RerequestBackoffPct: 200,
	}
	v, err := EncodeFlowBufferConfig(cfg)
	if err != nil {
		t.Fatalf("EncodeFlowBufferConfig: %v", err)
	}
	got, err := ParseFlowBufferConfig(roundTrip(t, v, 20).(*Vendor))
	if err != nil {
		t.Fatalf("ParseFlowBufferConfig: %v", err)
	}
	if got != cfg {
		t.Errorf("config = %+v, want %+v", got, cfg)
	}
}

// TestVendorLegacyBodies pins wire compatibility with pre-retry-policy
// peers: the original 12-byte config body must still parse, with the new
// fields decoding as zero (retry-forever semantics).
func TestVendorLegacyBodies(t *testing.T) {
	cfg := make([]byte, 4+12)
	binary.BigEndian.PutUint16(cfg[0:2], FlowBufSubtypeConfig)
	cfg[4] = uint8(GranularityFlow)
	binary.BigEndian.PutUint32(cfg[8:12], 50)
	binary.BigEndian.PutUint32(cfg[12:16], 64)
	got, err := ParseFlowBufferConfig(&Vendor{Vendor: VendorID, Data: cfg})
	if err != nil {
		t.Fatalf("ParseFlowBufferConfig(legacy config): %v", err)
	}
	want := FlowBufferConfig{Granularity: GranularityFlow, RerequestTimeoutMs: 50, MaxPacketsPerFlow: 64}
	if got != want {
		t.Errorf("legacy config = %+v, want %+v", got, want)
	}
}

func TestVendorRejections(t *testing.T) {
	if _, err := EncodeFlowBufferConfig(FlowBufferConfig{}); err == nil {
		t.Error("EncodeFlowBufferConfig accepted zero granularity")
	}
	if _, err := ParseFlowBufferConfig(&Vendor{Vendor: 0x1234}); !errors.Is(err, ErrForeignVendor) {
		t.Errorf("foreign vendor error = %v", err)
	}
	if _, err := ParseFlowBufferConfig(&Vendor{Vendor: VendorID, Data: []byte{0}}); err == nil {
		t.Error("ParseFlowBufferConfig accepted truncated payload")
	}
	bad, err := EncodeFlowBufferConfig(FlowBufferConfig{Granularity: GranularityFlow})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(bad.Data[0:2], 99)
	if _, err := ParseFlowBufferConfig(bad); err == nil {
		t.Error("ParseFlowBufferConfig accepted unknown subtype")
	}
}

func TestGranularityStringsAndValidity(t *testing.T) {
	tests := []struct {
		g     BufferGranularity
		s     string
		valid bool
	}{
		{GranularityNone, "no-buffer", true},
		{GranularityPacket, "packet-granularity", true},
		{GranularityFlow, "flow-granularity", true},
		{0, "granularity(0)", false},
		{9, "granularity(9)", false},
	}
	for _, tt := range tests {
		if got := tt.g.String(); got != tt.s {
			t.Errorf("String(%d) = %q, want %q", tt.g, got, tt.s)
		}
		if got := tt.g.Valid(); got != tt.valid {
			t.Errorf("Valid(%d) = %v, want %v", tt.g, got, tt.valid)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if got := TypePacketIn.String(); got != "PACKET_IN" {
		t.Errorf("String = %q", got)
	}
	if got := MsgType(77).String(); got != "OFPT_77" {
		t.Errorf("String = %q", got)
	}
}

func TestEncodeTooLong(t *testing.T) {
	m := &EchoRequest{Data: make([]byte, MaxMessageLen)}
	if _, err := Encode(m, 1); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("Encode oversized: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEncode did not panic on oversized message")
		}
	}()
	MustEncode(m, 1)
}

// randomMessage builds a random valid message for property tests.
func randomMessage(r *rand.Rand) Message {
	randMAC := func() packet.MAC {
		var m packet.MAC
		r.Read(m[:])
		return m
	}
	randAddr := func() netip.Addr {
		var a [4]byte
		r.Read(a[:])
		return netip.AddrFrom4(a)
	}
	randBytes := func(n int) []byte {
		b := make([]byte, r.Intn(n))
		r.Read(b)
		if len(b) == 0 {
			return nil
		}
		return b
	}
	randActions := func() []Action {
		var out []Action
		for i := 0; i < r.Intn(4); i++ {
			switch r.Intn(5) {
			case 0:
				out = append(out, &ActionOutput{Port: uint16(r.Uint32()), MaxLen: uint16(r.Uint32())})
			case 1:
				out = append(out, &ActionSetDLSrc{Addr: randMAC()})
			case 2:
				out = append(out, &ActionSetDLDst{Addr: randMAC()})
			case 3:
				out = append(out, &ActionSetNWTOS{TOS: uint8(r.Uint32())})
			default:
				out = append(out, &ActionEnqueue{Port: uint16(r.Uint32()), QueueID: r.Uint32()})
			}
		}
		return out
	}
	randMatch := func() Match {
		return Match{
			Wildcards: r.Uint32() & WildcardAll,
			InPort:    uint16(r.Uint32()),
			DLSrc:     randMAC(),
			DLDst:     randMAC(),
			DLVLAN:    uint16(r.Uint32()),
			DLVLANPCP: uint8(r.Intn(8)),
			DLType:    uint16(r.Uint32()),
			NWTOS:     uint8(r.Uint32()),
			NWProto:   uint8(r.Uint32()),
			NWSrc:     randAddr(),
			NWDst:     randAddr(),
			TPSrc:     uint16(r.Uint32()),
			TPDst:     uint16(r.Uint32()),
		}
	}
	switch r.Intn(10) {
	case 0:
		return &Hello{}
	case 1:
		return &EchoRequest{Data: randBytes(64)}
	case 2:
		return &ErrorMsg{ErrType: uint16(r.Intn(4)), Code: uint16(r.Intn(8)), Data: randBytes(32)}
	case 3:
		return &PacketIn{
			BufferID: r.Uint32(), TotalLen: uint16(r.Uint32()),
			InPort: uint16(r.Uint32()), Reason: uint8(r.Intn(2)), Data: randBytes(256),
		}
	case 4:
		return &PacketOut{
			BufferID: r.Uint32(), InPort: uint16(r.Uint32()),
			Actions: randActions(), Data: randBytes(256),
		}
	case 5:
		return &FlowMod{
			Match: randMatch(), Cookie: r.Uint64(), Command: uint16(r.Intn(5)),
			IdleTimeout: uint16(r.Uint32()), HardTimeout: uint16(r.Uint32()),
			Priority: uint16(r.Uint32()), BufferID: r.Uint32(),
			OutPort: uint16(r.Uint32()), Flags: uint16(r.Intn(8)), Actions: randActions(),
		}
	case 6:
		var ports []PhyPort
		for i := 0; i < r.Intn(4); i++ {
			ports = append(ports, PhyPort{PortNo: uint16(i + 1), HWAddr: randMAC(), Name: "p"})
		}
		return &FeaturesReply{
			DatapathID: r.Uint64(), NBuffers: r.Uint32(), NTables: uint8(r.Uint32()),
			Capabilities: r.Uint32(), Actions: r.Uint32(), Ports: ports,
		}
	case 7:
		return &FlowRemoved{
			Match: randMatch(), Cookie: r.Uint64(), Priority: uint16(r.Uint32()),
			Reason: uint8(r.Intn(4)), DurationSec: r.Uint32(), DurationNs: r.Uint32(),
			IdleTimeout: uint16(r.Uint32()), PacketCount: r.Uint64(), ByteCount: r.Uint64(),
		}
	case 8:
		return &SetConfig{Config: SwitchConfig{Flags: uint16(r.Intn(4)), MissSendLen: uint16(r.Uint32())}}
	default:
		return &Vendor{Vendor: r.Uint32(), Data: randBytes(64)}
	}
}

func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prop := func() bool {
		m := randomMessage(r)
		xid := r.Uint32()
		b, err := Encode(m, xid)
		if err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		got, gotXid, err := Decode(b)
		if err != nil {
			t.Logf("Decode(%v): %v", m.Type(), err)
			return false
		}
		if gotXid != xid {
			return false
		}
		if !reflect.DeepEqual(got, m) {
			t.Logf("mismatch %v:\n got %#v\nwant %#v", m.Type(), got, m)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	prop := func() bool {
		n := r.Intn(128)
		b := make([]byte, n)
		r.Read(b)
		if n >= 4 {
			// Half the time, make version and length plausible so body
			// decoders actually run.
			if r.Intn(2) == 0 {
				b[0] = Version
				binary.BigEndian.PutUint16(b[2:4], uint16(n))
			}
		}
		_, _, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMatchEncodeDecodeIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	prop := func() bool {
		fm := &FlowMod{Match: Match{
			Wildcards: r.Uint32() & WildcardAll,
			InPort:    uint16(r.Uint32()),
			DLType:    uint16(r.Uint32()),
			NWProto:   uint8(r.Uint32()),
			NWSrc:     netip.AddrFrom4([4]byte{byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32())}),
			NWDst:     netip.AddrFrom4([4]byte{byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32()), byte(r.Uint32())}),
			TPSrc:     uint16(r.Uint32()),
			TPDst:     uint16(r.Uint32()),
		}}
		b, err := Encode(fm, 1)
		if err != nil {
			return false
		}
		got, _, err := Decode(b)
		if err != nil {
			return false
		}
		gm := got.(*FlowMod).Match
		return gm.Equal(&fm.Match) && fm.Match.Equal(&gm)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriterBatchSingleWrite(t *testing.T) {
	// AppendMessage stages without touching the stream; Flush emits every
	// staged frame in exactly one Write call, and a Reader sees the same
	// message sequence it would from per-message writes.
	var w countingWriter
	bw := NewWriter(&w)
	msgs := []Message{
		&FlowMod{Command: FlowModAdd, Priority: 1, BufferID: NoBuffer,
			Actions: []Action{&ActionOutput{Port: 2}}},
		&PacketOut{BufferID: 9, InPort: 1, Actions: []Action{&ActionOutput{Port: 2}}},
		&EchoRequest{Data: []byte("keepalive")},
	}
	for i, m := range msgs {
		if err := bw.AppendMessage(m, uint32(i)); err != nil {
			t.Fatalf("AppendMessage %d: %v", i, err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("AppendMessage wrote to the stream (%d writes)", w.writes)
	}
	if bw.Buffered() == 0 {
		t.Fatal("nothing staged")
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.writes != 1 {
		t.Errorf("Flush used %d writes, want 1", w.writes)
	}
	if bw.Buffered() != 0 {
		t.Errorf("Buffered after Flush = %d", bw.Buffered())
	}
	// Flush with nothing staged is a no-op.
	if err := bw.Flush(); err != nil || w.writes != 1 {
		t.Errorf("empty Flush: err %v, writes %d", err, w.writes)
	}
	r := NewReader(bytes.NewReader(w.buf.Bytes()))
	for i, want := range msgs {
		got, xid, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage %d: %v", i, err)
		}
		if got.Type() != want.Type() || xid != uint32(i) {
			t.Errorf("message %d: type %v xid %d, want %v %d", i, got.Type(), xid, want.Type(), i)
		}
	}
	if _, _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("after batch end: %v, want io.EOF", err)
	}
}

func TestWriterMixedAppendAndWriteMessagePreservesOrder(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.AppendMessage(&Hello{}, 1); err != nil {
		t.Fatal(err)
	}
	// WriteMessage flushes the staged hello ahead of the echo.
	if err := bw.WriteMessage(&EchoRequest{Data: []byte("x")}, 2); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	m1, x1, err := r.ReadMessage()
	if err != nil || m1.Type() != TypeHello || x1 != 1 {
		t.Fatalf("first = %v xid %d err %v, want HELLO 1", m1, x1, err)
	}
	m2, x2, err := r.ReadMessage()
	if err != nil || m2.Type() != TypeEchoRequest || x2 != 2 {
		t.Fatalf("second = %v xid %d err %v, want ECHO_REQUEST 2", m2, x2, err)
	}
}

func TestWriterAppendOversizedLeavesStageIntact(t *testing.T) {
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	if err := bw.AppendMessage(&Hello{}, 1); err != nil {
		t.Fatal(err)
	}
	staged := bw.Buffered()
	big := &EchoRequest{Data: make([]byte, MaxMessageLen)}
	if err := bw.AppendMessage(big, 2); !errors.Is(err, ErrMessageTooLong) {
		t.Fatalf("oversized append error = %v", err)
	}
	if bw.Buffered() != staged {
		t.Errorf("failed append changed stage: %d -> %d bytes", staged, bw.Buffered())
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if m, _, err := NewReader(&buf).ReadMessage(); err != nil || m.Type() != TypeHello {
		t.Errorf("staged hello lost: %v, %v", m, err)
	}
}

// countingWriter counts Write calls while collecting the bytes.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}
