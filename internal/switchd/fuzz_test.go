package switchd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// The fuzz input of FuzzSwitchControl: one configuration byte, then a stream
// of records, each an op byte and its operand.
const (
	opControl  = iota // a well-framed OpenFlow message follows
	opMiss            // the next byte picks one of fuzzFlows frames on port 1
	opWait            // the next byte is milliseconds to let pass, then Due
	opPortFlip        // the next byte is (port-1)<<1 | down
)

const fuzzFlows = 4

func fuzzControl(m openflow.Message, xid uint32) []byte {
	return append([]byte{opControl}, openflow.MustEncode(m, xid)...)
}

// FuzzSwitchControl feeds the shared dispatcher a stream of controller
// messages interleaved with table misses, time passing and port flips —
// everything either front end hands a Datapath. Oracles: nothing panics, every
// message the datapath returns survives Encode→Decode→Encode byte for byte,
// the pool never holds more units than it has, and dropping every buffer id
// the datapath ever announced empties the pool.
func FuzzSwitchControl(f *testing.F) {
	frames := make([][]byte, fuzzFlows)
	matches := make([]openflow.Match, fuzzFlows)
	for i := range frames {
		frames[i] = testFrame(f, fmt.Sprintf("10.1.0.%d", i+1), 1000, 200)
		parsed, err := packet.ParseHeaders(frames[i])
		if err != nil {
			f.Fatal(err)
		}
		matches[i] = openflow.ExactMatch(1, parsed)
	}
	out2 := []openflow.Action{&openflow.ActionOutput{Port: 2}}
	vendor, err := openflow.EncodeFlowBufferConfig(openflow.FlowBufferConfig{
		Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(cfg byte, records ...[]byte) {
		f.Add(append([]byte{cfg}, bytes.Join(records, nil)...))
	}
	// Packet granularity: a miss released by a flagged flow_mod whose rule
	// then expires, a miss released by packet_out, port 2 going down under a
	// rule and coming back.
	seed(1,
		[]byte{opMiss, 0},
		fuzzControl(&openflow.FlowMod{Match: matches[0], Command: openflow.FlowModAdd, Priority: 10,
			HardTimeout: 1, BufferID: 1, Flags: openflow.FlowModFlagSendFlowRem, Actions: out2}, 7),
		[]byte{opMiss, 1},
		fuzzControl(&openflow.PacketOut{BufferID: 2, InPort: 1, Actions: out2}, 8),
		fuzzControl(&openflow.FlowMod{Match: matches[2], Command: openflow.FlowModAdd, Priority: 10,
			BufferID: openflow.NoBuffer, Flags: openflow.FlowModFlagSendFlowRem, Actions: out2}, 9),
		[]byte{opWait, 250}, []byte{opWait, 250}, []byte{opWait, 250}, []byte{opWait, 250}, []byte{opWait, 250},
		[]byte{opPortFlip, 1<<1 | 1},
		[]byte{opPortFlip, 1 << 1},
	)
	// Flow granularity: a burst re-requested, a reconfiguration refused while
	// it is buffered, its release, then the reconfiguration again.
	seed(2,
		[]byte{opMiss, 3}, []byte{opMiss, 3}, []byte{opMiss, 3},
		[]byte{opWait, 60},
		fuzzControl(vendor, 10),
		fuzzControl(&openflow.PacketOut{BufferID: 1, InPort: 1, Actions: out2}, 11),
		fuzzControl(vendor, 12),
		[]byte{opMiss, 1},
	)
	// No buffer: the packet rides in the packet_out, and the handshake
	// queries are answered.
	seed(0,
		[]byte{opMiss, 0},
		fuzzControl(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Actions: out2, Data: frames[0]}, 13),
		fuzzControl(&openflow.FeaturesRequest{}, 14),
		fuzzControl(&openflow.SetConfig{Config: openflow.SwitchConfig{MissSendLen: 64}}, 15),
		fuzzControl(&openflow.GetConfigRequest{}, 16),
	)

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfg := Config{
			DatapathID: 1, NumPorts: 2, TableCapacity: 4, BufferCapacity: 8,
			Buffer: openflow.FlowBufferConfig{
				Granularity:        []openflow.BufferGranularity{openflow.GranularityNone, openflow.GranularityPacket, openflow.GranularityFlow}[in[0]%3],
				RerequestTimeoutMs: 20,
			},
		}
		if in[0]&4 != 0 {
			cfg.BufferExpiry = 100 * time.Millisecond
		}
		dp, err := NewDatapath(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var now time.Duration
		announced := map[uint32]bool{}
		survives := func(m openflow.Message) {
			b, err := openflow.Encode(m, 1)
			if err != nil {
				t.Fatalf("%v does not encode: %v", m.Type(), err)
			}
			m2, _, err := openflow.Decode(b)
			if err != nil {
				t.Fatalf("%v does not decode: %v\n%x", m.Type(), err, b)
			}
			if b2 := openflow.MustEncode(m2, 1); !bytes.Equal(b, b2) {
				t.Fatalf("%v changes across Encode→Decode→Encode:\n%x\n%x", m.Type(), b, b2)
			}
			if pi, ok := m.(*openflow.PacketIn); ok && pi.BufferID != openflow.NoBuffer {
				announced[pi.BufferID] = true
			}
		}
		for in = in[1:]; len(in) >= 2; {
			op := in[0] % 4
			in = in[1:]
			switch op {
			case opControl:
				if len(in) < openflow.HeaderLen {
					return
				}
				n := int(binary.BigEndian.Uint16(in[2:4]))
				if n < openflow.HeaderLen || n > len(in) {
					return
				}
				frame := in[:n]
				in = in[n:]
				m, xid, err := openflow.Decode(frame)
				if err != nil {
					survives(badTypeError(frame))
					continue
				}
				if res, err := dp.Control(now, m, xid); err == nil {
					for _, msg := range res.Msgs {
						survives(msg)
					}
				}
			case opMiss:
				res, err := dp.HandleFrame(now, 1, frames[int(in[0])%fuzzFlows])
				in = in[1:]
				if err != nil {
					t.Fatalf("a well-formed frame: %v", err)
				}
				if res.Miss != nil && res.Miss.PacketIn != nil {
					survives(res.Miss.PacketIn)
				}
			case opWait:
				now += time.Duration(in[0]) * time.Millisecond
				in = in[1:]
				rerequests, removed := dp.Due(now)
				for _, pi := range rerequests {
					survives(pi)
				}
				for _, msg := range removed {
					survives(msg)
				}
			case opPortFlip:
				msgs, err := dp.SetPortDown(now, uint16(1+(in[0]>>1)%2), in[0]&1 != 0)
				in = in[1:]
				if err != nil {
					t.Fatal(err)
				}
				for _, msg := range msgs {
					survives(msg)
				}
			}
			if st := dp.Mechanism().Stats(now); st.UnitsInUse > st.UnitsCapacity {
				t.Fatalf("%d units in use of %d", st.UnitsInUse, st.UnitsCapacity)
			}
		}
		for id := range announced {
			_ = dp.Mechanism().Drop(now, id) // released or expired ids are refused
		}
		if units := dp.Mechanism().Stats(now).UnitsInUse; units != 0 {
			t.Fatalf("%d units in use after dropping every announced buffer id", units)
		}
	})
}
