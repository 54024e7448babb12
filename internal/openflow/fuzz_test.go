package openflow

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzSeedMessages is the corpus of real encoded messages the fuzzers start
// from: one of every message type the codec implements, with both buffered
// and unbuffered variants for the buffer-carrying types.
func fuzzSeedMessages(tb testing.TB) [][]byte {
	tb.Helper()
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&ErrorMsg{ErrType: 1, Code: 2, Data: []byte{0xde, 0xad}},
		&FeaturesRequest{},
		&FeaturesReply{
			DatapathID: 1, NBuffers: 256, NTables: 1,
			Ports: []PhyPort{{PortNo: 1, Name: "eth0"}, {PortNo: 2, Name: "eth1"}},
		},
		&GetConfigRequest{},
		&GetConfigReply{},
		&SetConfig{},
		&PacketIn{BufferID: 7, TotalLen: 1000, InPort: 1, Reason: ReasonNoMatch, Data: make([]byte, 64)},
		&PacketIn{BufferID: NoBuffer, TotalLen: 60, InPort: 2, Reason: ReasonNoMatch, Data: []byte{1, 2, 3}},
		&PacketOut{BufferID: 7, InPort: 1, Actions: []Action{&ActionOutput{Port: 2}}},
		&PacketOut{
			BufferID: NoBuffer, InPort: 1,
			Actions: []Action{&ActionOutput{Port: PortFlood}, &ActionSetNWTOS{TOS: 0x10}},
			Data:    []byte{0xca, 0xfe},
		},
		&FlowMod{
			Command: FlowModAdd, Priority: 100, BufferID: NoBuffer,
			IdleTimeout: 30, Actions: []Action{&ActionOutput{Port: 2}},
		},
		&FlowRemoved{Priority: 10, Reason: RemovedIdleTimeout, PacketCount: 5, ByteCount: 500},
		&PortStatus{Reason: 1, Desc: PhyPort{PortNo: 3, Name: "p3"}},
		&BarrierRequest{},
		&BarrierReply{},
		// A switch's refusal of a type it does not implement, a capacity
		// eviction, and the enqueue and MAC-rewrite actions.
		&ErrorMsg{ErrType: ErrTypeBadRequest, Code: ErrCodeBadType, Data: make([]byte, 64)},
		&FlowRemoved{Priority: 10, Reason: RemovedEviction, DurationSec: 3, PacketCount: 2, ByteCount: 128},
		&PacketOut{
			BufferID: 9, InPort: 2,
			Actions: []Action{&ActionSetDLDst{Addr: [6]byte{2, 0, 0, 0, 0, 2}}, &ActionEnqueue{Port: 1, QueueID: 3}},
		},
	}
	cfg, err := EncodeFlowBufferConfig(FlowBufferConfig{
		Granularity:        GranularityFlow,
		RerequestTimeoutMs: 50,
	})
	if err != nil {
		tb.Fatalf("EncodeFlowBufferConfig: %v", err)
	}
	msgs = append(msgs, cfg)

	out := make([][]byte, 0, len(msgs))
	for i, m := range msgs {
		out = append(out, MustEncode(m, uint32(i)))
	}
	return out
}

// FuzzDecode asserts the codec's two safety properties on arbitrary bytes:
// Decode never panics, and any frame it accepts re-encodes to an equivalent
// frame (encode → decode is the identity on decoded messages). The second
// property is what keeps the capture module's byte accounting honest: a
// message's measured wire size is the size its fields encode back to.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeedMessages(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, xid, err := Decode(b)
		if err != nil {
			return // rejected input; not panicking is the property
		}
		re, err := Encode(m, xid)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.Type(), err)
		}
		m2, xid2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.Type(), err)
		}
		if xid2 != xid {
			t.Fatalf("xid changed across re-encode: %d -> %d", xid, xid2)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%v not equivalent across re-encode:\nfirst:  %#v\nsecond: %#v", m.Type(), m, m2)
		}
	})
}

// FuzzVendorDecode targets the flow-buffer vendor codec:
// ParseFlowBufferConfig must never panic on arbitrary payload bytes, and any
// payload it accepts must survive a re-encode/re-parse round trip
// (legacy-length bodies re-encode to the extended layout with the new fields
// zero, which the round-trip comparison tolerates by re-parsing rather than
// comparing bytes).
func FuzzVendorDecode(f *testing.F) {
	cfg, err := EncodeFlowBufferConfig(FlowBufferConfig{
		Granularity:         GranularityFlow,
		RerequestTimeoutMs:  50,
		MaxPacketsPerFlow:   64,
		MaxRerequests:       8,
		RerequestBackoffPct: 200,
	})
	if err != nil {
		f.Fatalf("EncodeFlowBufferConfig: %v", err)
	}
	f.Add(cfg.Data)
	unknown := append([]byte(nil), cfg.Data...)
	binary.BigEndian.PutUint16(unknown[0:2], 3) // an unknown subtype
	f.Add(unknown)
	badGranularity := append([]byte(nil), cfg.Data...)
	badGranularity[4] = 0
	f.Add(badGranularity)
	f.Add(cfg.Data[:4+12]) // legacy config body
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseFlowBufferConfig(&Vendor{Vendor: VendorID, Data: data})
		if err != nil {
			return // rejected input; not panicking is the property
		}
		re, err := EncodeFlowBufferConfig(c)
		if err != nil {
			t.Fatalf("accepted config %+v does not re-encode: %v", c, err)
		}
		c2, err := ParseFlowBufferConfig(re)
		if err != nil {
			t.Fatalf("re-encoded payload does not parse: %v", err)
		}
		if c != c2 {
			t.Fatalf("config not equivalent across re-encode:\nfirst:  %#v\nsecond: %#v", c, c2)
		}
	})
}

// FuzzReader drives the stream reader with the same corpus: whatever framing
// the byte-slice decoder accepts, the io reader must deliver identically.
func FuzzReader(f *testing.F) {
	for _, seed := range fuzzSeedMessages(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, xid, err := Decode(b)
		if err != nil {
			return
		}
		r := NewReader(bytes.NewReader(b))
		m2, xid2, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("Decode accepted frame the Reader rejects: %v", err)
		}
		if xid2 != xid || !reflect.DeepEqual(m, m2) {
			t.Fatalf("Reader decoded %v differently from Decode", m.Type())
		}
	})
}

// FuzzReaderStream drives the live-mode framing path with multi-message
// byte streams — the attack surface a real switch connection exposes: valid
// frames back to back, truncated tails, corrupt length prefixes, oversized
// lengths, garbage versions. The reader must hand back every well-formed
// prefix message unchanged and then fail with an error (never panic, never
// spin): exactly the contract the live controller relies on to close a
// misbehaving connection without disturbing the others.
func FuzzReaderStream(f *testing.F) {
	seeds := fuzzSeedMessages(f)
	// Clean two- and three-message streams.
	f.Add(append(append([]byte{}, seeds[0]...), seeds[1]...))
	f.Add(append(append(append([]byte{}, seeds[2]...), seeds[3]...), seeds[4]...))
	// A valid frame followed by a truncated one (mid-frame cut).
	cut := append(append([]byte{}, seeds[0]...), seeds[9][:len(seeds[9])-3]...)
	f.Add(cut)
	// Corrupt length prefixes after a valid frame.
	under := append([]byte{}, seeds[0]...)
	under = append(under, Version, byte(TypeHello), 0x00, 0x04, 0, 0, 0, 1) // length < header
	f.Add(under)
	over := append([]byte{}, seeds[0]...)
	over = append(over, Version, byte(TypeEchoRequest), 0xff, 0xff, 0, 0, 0, 1) // 65535-byte claim, no body
	f.Add(over)
	f.Add([]byte{0xff, 0x00, 0x00, 0x08, 0, 0, 0, 0}) // bad version
	f.Add([]byte{Version, 0xee, 0x00, 0x08, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(bytes.NewReader(b))
		consumed := 0
		for {
			m, _, err := r.ReadMessage()
			if err != nil {
				return // any error ends the connection; the stream may not resync
			}
			if m == nil {
				t.Fatal("ReadMessage returned nil message with nil error")
			}
			consumed += EncodedLen(m)
			if consumed > len(b) {
				t.Fatalf("reader produced %d message bytes from a %d-byte stream", consumed, len(b))
			}
		}
	})
}
