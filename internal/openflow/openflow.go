// Package openflow implements the OpenFlow 1.0 wire protocol subset the
// testbed needs, plus a vendor extension carrying the paper's
// flow-granularity buffer mechanism. Messages are encoded byte-accurately:
// control-path-load results in the evaluation are computed from the real
// serialized sizes of packet_in, packet_out and flow_mod messages, so the
// codec is a load-bearing part of the reproduction, not a convenience.
//
// The package offers two I/O surfaces:
//
//   - Encode/Decode on byte slices, used by the simulator (messages travel
//     as byte slices across simulated links, and their length is what the
//     capture module accounts).
//   - Reader/WriteMessage on io streams, used by the live-mode switch and
//     controller over real TCP connections.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Version is the OpenFlow protocol version implemented (1.0).
const Version = 0x01

// HeaderLen is the length of the ofp_header.
const HeaderLen = 8

// MaxMessageLen bounds accepted message lengths, guarding the live-mode
// reader against corrupt length fields.
const MaxMessageLen = 1 << 16

// MsgType enumerates the OpenFlow 1.0 message types implemented here.
type MsgType uint8

// OpenFlow 1.0 message type codes.
const (
	TypeHello            MsgType = 0
	TypeError            MsgType = 1
	TypeEchoRequest      MsgType = 2
	TypeEchoReply        MsgType = 3
	TypeVendor           MsgType = 4
	TypeFeaturesRequest  MsgType = 5
	TypeFeaturesReply    MsgType = 6
	TypeGetConfigRequest MsgType = 7
	TypeGetConfigReply   MsgType = 8
	TypeSetConfig        MsgType = 9
	TypePacketIn         MsgType = 10
	TypeFlowRemoved      MsgType = 11
	TypePortStatus       MsgType = 12
	TypePacketOut        MsgType = 13
	TypeFlowMod          MsgType = 14
	TypeBarrierRequest   MsgType = 18
	TypeBarrierReply     MsgType = 19
)

// String names the message type in the spec's OFPT_* style.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeVendor:
		return "VENDOR"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypeGetConfigRequest:
		return "GET_CONFIG_REQUEST"
	case TypeGetConfigReply:
		return "GET_CONFIG_REPLY"
	case TypeSetConfig:
		return "SET_CONFIG"
	case TypePacketIn:
		return "PACKET_IN"
	case TypeFlowRemoved:
		return "FLOW_REMOVED"
	case TypePortStatus:
		return "PORT_STATUS"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	default:
		return fmt.Sprintf("OFPT_%d", uint8(t))
	}
}

// Special port numbers (ofp_port).
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// NoBuffer is the buffer_id meaning "packet not buffered" (OFP_NO_BUFFER):
// the packet travels in full inside the packet_in / packet_out message.
const NoBuffer uint32 = 0xffffffff

// PacketIn reasons.
const (
	ReasonNoMatch uint8 = 0 // OFPR_NO_MATCH
	ReasonAction  uint8 = 1 // OFPR_ACTION
)

// FlowMod commands.
const (
	FlowModAdd          uint16 = 0
	FlowModModify       uint16 = 1
	FlowModModifyStrict uint16 = 2
	FlowModDelete       uint16 = 3
	FlowModDeleteStrict uint16 = 4
)

// FlowMod flags.
const (
	FlowModFlagSendFlowRem  uint16 = 1 << 0
	FlowModFlagCheckOverlap uint16 = 1 << 1
	FlowModFlagEmerg        uint16 = 1 << 2
)

// FlowRemoved reasons.
const (
	RemovedIdleTimeout uint8 = 0
	RemovedHardTimeout uint8 = 1
	RemovedDelete      uint8 = 2
	RemovedEviction    uint8 = 3 // extension: capacity eviction (paper §VI.B)
)

// DefaultMissSendLen is the spec default number of bytes of a buffered
// miss-match packet forwarded to the controller in packet_in.
const DefaultMissSendLen = 128

// Codec and framing errors.
var (
	ErrTruncated      = errors.New("openflow: truncated message")
	ErrBadVersion     = errors.New("openflow: unsupported version")
	ErrBadLength      = errors.New("openflow: bad length field")
	ErrUnknownType    = errors.New("openflow: unknown message type")
	ErrMessageTooLong = errors.New("openflow: message exceeds maximum length")
)

// Message is one OpenFlow message body. Implementations encode and decode
// only their body; the header is handled by Encode/Decode.
type Message interface {
	// Type reports the message type code for the header.
	Type() MsgType
	// bodyLen reports the encoded body length in bytes.
	bodyLen() int
	// encodeBody writes the body into b, which has length bodyLen().
	encodeBody(b []byte)
	// decodeBody parses the body from b.
	decodeBody(b []byte) error
}

// Encode serializes a message with the given transaction id into a
// standalone frame (header + body). The returned slice is exactly sized and
// freshly allocated, so it can be retained indefinitely — which is what the
// simulator needs: encoded messages live on simulated links and in buffer
// mechanisms across virtual time.
func Encode(m Message, xid uint32) ([]byte, error) {
	return AppendEncode(nil, m, xid)
}

// AppendEncode appends the encoded frame (header + body) to dst and returns
// the extended slice, allocating only when dst lacks capacity. The live-mode
// Writer uses it to reuse one encode buffer per connection; callers that
// retain encoded frames must use Encode (or pass nil) so frames do not share
// a buffer.
func AppendEncode(dst []byte, m Message, xid uint32) ([]byte, error) {
	n := HeaderLen + m.bodyLen()
	if n > MaxMessageLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrMessageTooLong, n)
	}
	off := len(dst)
	need := off + n
	if cap(dst) >= need {
		dst = dst[:need]
		clear(dst[off:]) // encodeBody implementations assume a zeroed buffer
	} else {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[off:]
	buf[0] = Version
	buf[1] = byte(m.Type())
	binary.BigEndian.PutUint16(buf[2:4], uint16(n))
	binary.BigEndian.PutUint32(buf[4:8], xid)
	m.encodeBody(buf[HeaderLen:])
	return dst, nil
}

// MustEncode is Encode for messages known to fit; it panics on error and is
// intended for internal fixed-size messages built by the library itself.
func MustEncode(m Message, xid uint32) []byte {
	b, err := Encode(m, xid)
	if err != nil {
		panic(fmt.Sprintf("openflow: MustEncode: %v", err))
	}
	return b
}

// Free lists for the three high-volume message types: every simulated miss
// produces a packet_in and every controller response a packet_out or
// flow_mod, so Decode would otherwise allocate a shell per control message.
// Shells are zeroed on release, so acquired shells are always blank.
var (
	packetInPool  = sync.Pool{New: func() any { return new(PacketIn) }}
	packetOutPool = sync.Pool{New: func() any { return new(PacketOut) }}
	flowModPool   = sync.Pool{New: func() any { return new(FlowMod) }}
)

// AcquirePacketIn returns a blank PacketIn from the free list.
func AcquirePacketIn() *PacketIn { return packetInPool.Get().(*PacketIn) }

// AcquirePacketOut returns a blank PacketOut from the free list.
func AcquirePacketOut() *PacketOut { return packetOutPool.Get().(*PacketOut) }

// AcquireFlowMod returns a blank FlowMod from the free list.
func AcquireFlowMod() *FlowMod { return flowModPool.Get().(*FlowMod) }

// ReleaseMessage returns a pooled message shell to its free list (a no-op
// for other types). Only the struct shell is recycled: slices the message
// referenced (Data, Actions) keep their backing arrays, so consumers that
// retained those slices are unaffected. The caller must not touch m after
// release, and must never release a message something else still holds — the
// decode sites in simswitch and the sim controller release exactly the
// messages they finished dispatching, and mechanism-built packet_ins (which
// the flow-granularity mechanism retains for re-requests) are never pooled.
func ReleaseMessage(m Message) {
	switch v := m.(type) {
	case *PacketIn:
		*v = PacketIn{}
		packetInPool.Put(v)
	case *PacketOut:
		*v = PacketOut{}
		packetOutPool.Put(v)
	case *FlowMod:
		*v = FlowMod{}
		flowModPool.Put(v)
	}
}

// newMessage allocates the empty body struct for a type code, drawing the
// high-volume types from their free lists.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypeVendor:
		return &Vendor{}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		return &FeaturesReply{}, nil
	case TypeGetConfigRequest:
		return &GetConfigRequest{}, nil
	case TypeGetConfigReply:
		return &GetConfigReply{}, nil
	case TypeSetConfig:
		return &SetConfig{}, nil
	case TypePacketIn:
		return AcquirePacketIn(), nil
	case TypeFlowRemoved:
		return &FlowRemoved{}, nil
	case TypePortStatus:
		return &PortStatus{}, nil
	case TypePacketOut:
		return AcquirePacketOut(), nil
	case TypeFlowMod:
		return AcquireFlowMod(), nil
	case TypeBarrierRequest:
		return &BarrierRequest{}, nil
	case TypeBarrierReply:
		return &BarrierReply{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
}

// Decode parses one complete frame (header + body) and returns the message
// and its transaction id. The input must contain exactly one message.
func Decode(b []byte) (Message, uint32, error) {
	if len(b) < HeaderLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, need header", ErrTruncated, len(b))
	}
	if b[0] != Version {
		return nil, 0, fmt.Errorf("%w: 0x%02x", ErrBadVersion, b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < HeaderLen || length != len(b) {
		return nil, 0, fmt.Errorf("%w: header says %d, frame is %d", ErrBadLength, length, len(b))
	}
	xid := binary.BigEndian.Uint32(b[4:8])
	m, err := newMessage(MsgType(b[1]))
	if err != nil {
		return nil, xid, err
	}
	if err := m.decodeBody(b[HeaderLen:]); err != nil {
		return nil, xid, fmt.Errorf("decoding %v body: %w", MsgType(b[1]), err)
	}
	return m, xid, nil
}

// WriteMessage encodes and writes one message to w, allocating a fresh
// buffer per call. Long-lived connections should use a Writer instead.
func WriteMessage(w io.Writer, m Message, xid uint32) error {
	b, err := Encode(m, xid)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("openflow: writing %v: %w", m.Type(), err)
	}
	return nil
}

// Writer writes framed messages to a stream, reusing one encode buffer
// across calls — the per-connection encode buffer of the live-mode agent and
// controller. It is not safe for concurrent use; callers must serialize
// writes (the live endpoints hold their write mutex around each call, or
// funnel all writes through one writer goroutine).
//
// Beyond per-message WriteMessage, a Writer can batch: AppendMessage stages
// encoded frames without writing, and Flush emits everything staged in a
// single Write call — one syscall for a burst of flow_mods and packet_outs,
// which is what lets the live controller's per-connection writer goroutine
// drain its queue faster than the dispatch side fills it.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps a stream for framed message writes.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// AppendMessage encodes one message into the Writer's staging buffer without
// writing it. Call Flush to emit everything staged as one Write. An encode
// error leaves previously staged frames intact.
func (w *Writer) AppendMessage(m Message, xid uint32) error {
	b, err := AppendEncode(w.buf, m, xid)
	if err != nil {
		return err
	}
	w.buf = b
	return nil
}

// Buffered reports the number of staged bytes awaiting Flush.
func (w *Writer) Buffered() int { return len(w.buf) }

// Flush writes all staged frames in a single Write call and resets the
// staging buffer (retaining its capacity). A no-op when nothing is staged.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return fmt.Errorf("openflow: flushing batch: %w", err)
	}
	return nil
}

// WriteMessage encodes and writes one message, reusing the Writer's buffer.
// Any frames staged with AppendMessage are flushed ahead of it, preserving
// order.
func (w *Writer) WriteMessage(m Message, xid uint32) error {
	if err := w.AppendMessage(m, xid); err != nil {
		return err
	}
	return w.Flush()
}

// Reader reads framed OpenFlow messages from a byte stream (live mode).
type Reader struct {
	r   io.Reader
	hdr [HeaderLen]byte
}

// NewReader wraps a stream for framed message reads.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage reads and decodes the next complete message. On a cleanly
// closed stream it returns io.EOF.
func (r *Reader) ReadMessage() (Message, uint32, error) {
	frame, err := r.ReadFrame()
	if err != nil {
		return nil, 0, err
	}
	return Decode(frame)
}

// ReadFrame reads the next complete frame (header + body) without decoding
// it, so a reader that cannot decode a frame (ErrUnknownType) still has its
// bytes and stays aligned on the stream. On a cleanly closed stream it
// returns io.EOF.
func (r *Reader) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("openflow: reading header: %w", err)
	}
	length := int(binary.BigEndian.Uint16(r.hdr[2:4]))
	if length < HeaderLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if length > MaxMessageLen {
		return nil, fmt.Errorf("%w: %d", ErrMessageTooLong, length)
	}
	frame := make([]byte, length)
	copy(frame, r.hdr[:])
	if _, err := io.ReadFull(r.r, frame[HeaderLen:]); err != nil {
		return nil, fmt.Errorf("openflow: reading %d-byte body: %w", length-HeaderLen, err)
	}
	return frame, nil
}

// EncodedLen reports the full frame length of a message without encoding it;
// the simulator uses it for transmission-time computation.
func EncodedLen(m Message) int { return HeaderLen + m.bodyLen() }
