package openflow

import (
	"encoding/binary"
	"fmt"
)

// VendorID identifies this library's experimenter extension, which carries
// the paper's flow-granularity buffer mechanism. The OpenFlow buffer model
// itself (buffer_id in packet_in / packet_out / flow_mod) is standard; what
// the paper adds — one buffer_id per flow, shared by all queued packets, with
// a re-request timeout — needs a configuration message, and the spec's
// extension point for that is the vendor (experimenter) message.
const VendorID uint32 = 0x00F17B0F

// FlowBufSubtypeConfig is the vendor subtype of the flow-granularity buffer
// extension's one message, FlowBufferConfig.
const FlowBufSubtypeConfig uint16 = 1

// Buffer granularity modes carried by FlowBufferConfig.
type BufferGranularity uint8

// Granularity modes. The zero value is invalid so an unset config is
// detectable.
const (
	// GranularityNone disables buffering: every miss-match packet rides in
	// full inside packet_in (buffer_id == NoBuffer).
	GranularityNone BufferGranularity = 1
	// GranularityPacket is the OpenFlow default buffer behaviour: each
	// miss-match packet gets its own buffer unit and its own packet_in.
	GranularityPacket BufferGranularity = 2
	// GranularityFlow is the paper's mechanism: all miss-match packets of a
	// flow share one buffer_id; only the first triggers a packet_in.
	GranularityFlow BufferGranularity = 3
)

// String names the granularity mode.
func (g BufferGranularity) String() string {
	switch g {
	case GranularityNone:
		return "no-buffer"
	case GranularityPacket:
		return "packet-granularity"
	case GranularityFlow:
		return "flow-granularity"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// Valid reports whether g is one of the defined modes.
func (g BufferGranularity) Valid() bool {
	return g >= GranularityNone && g <= GranularityFlow
}

// Vendor is the raw experimenter message: a vendor id plus opaque payload.
// The extension's body is encoded into / decoded from Data with
// EncodeFlowBufferConfig and ParseFlowBufferConfig.
type Vendor struct {
	Vendor uint32
	Data   []byte
}

var _ Message = (*Vendor)(nil)

// Type implements Message.
func (*Vendor) Type() MsgType  { return TypeVendor }
func (m *Vendor) bodyLen() int { return 4 + len(m.Data) }
func (m *Vendor) encodeBody(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], m.Vendor)
	copy(b[4:], m.Data)
}
func (m *Vendor) decodeBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: vendor body needs 4 bytes, have %d", ErrTruncated, len(b))
	}
	m.Vendor = binary.BigEndian.Uint32(b[0:4])
	m.Data = cloneBytes(b[4:])
	return nil
}

// FlowBufferConfig configures the switch's buffer mechanism
// (controller-to-switch). RerequestTimeoutMs is Algorithm 1's timeout: how
// long the switch waits for control operation messages before re-sending the
// packet_in for a still-buffered flow. MaxPacketsPerFlow bounds one flow's
// queue so a single heavy flow cannot monopolize the pool (0 means
// unbounded).
//
// MaxRerequests and RerequestBackoffPct harden the re-request loop against a
// lossy or dead control channel: after MaxRerequests unanswered re-sends the
// switch gives up on the buffered flow — releasing its pool unit and
// draining the queued packets through the no-buffer full-packet path — and
// each successive wait grows by RerequestBackoffPct percent (100 doubles it).
// Both zero keeps the original retry-forever, fixed-interval behavior, which
// is also what a legacy 12-byte config body decodes to.
type FlowBufferConfig struct {
	Granularity         BufferGranularity
	RerequestTimeoutMs  uint32
	MaxPacketsPerFlow   uint32
	MaxRerequests       uint32
	RerequestBackoffPct uint32
}

const (
	flowBufferConfigLenV1 = 4 + 12 // subheader + original body
	flowBufferConfigLen   = 4 + 20 // subheader + body with retry policy
)

// EncodeFlowBufferConfig wraps the config into a Vendor message.
func EncodeFlowBufferConfig(c FlowBufferConfig) (*Vendor, error) {
	if !c.Granularity.Valid() {
		return nil, fmt.Errorf("openflow: invalid buffer granularity %d", uint8(c.Granularity))
	}
	data := make([]byte, flowBufferConfigLen)
	binary.BigEndian.PutUint16(data[0:2], FlowBufSubtypeConfig)
	data[4] = uint8(c.Granularity)
	binary.BigEndian.PutUint32(data[8:12], c.RerequestTimeoutMs)
	binary.BigEndian.PutUint32(data[12:16], c.MaxPacketsPerFlow)
	binary.BigEndian.PutUint32(data[16:20], c.MaxRerequests)
	binary.BigEndian.PutUint32(data[20:24], c.RerequestBackoffPct)
	return &Vendor{Vendor: VendorID, Data: data}, nil
}

// FlowBufferStats reports buffer occupancy and mechanism counters, as
// core.Mechanism.Stats returns them. Giveups counts flows abandoned after
// exhausting the re-request budget; their queued packets are reported
// through the mechanism's fallback counter, not lost.
//
// BytesInUse / BytesHighWater / RejectedBytes report the pool's byte
// accounting (the paper's Fig. 10 utilization axis): current buffered
// bytes, the peak, and bytes turned away by a full pool.
type FlowBufferStats struct {
	UnitsInUse      uint32
	UnitsCapacity   uint32
	FlowsBuffered   uint32
	PacketIns       uint64
	Rerequests      uint64
	DroppedNoBuffer uint64
	Giveups         uint64
	BytesInUse      uint64
	BytesHighWater  uint64
	RejectedBytes   uint64
}

// ErrForeignVendor reports a vendor message from a different experimenter.
var ErrForeignVendor = fmt.Errorf("openflow: vendor message from foreign experimenter")

// ParseFlowBufferConfig decodes this extension's FlowBufferConfig from a
// Vendor message.
func ParseFlowBufferConfig(v *Vendor) (FlowBufferConfig, error) {
	if v.Vendor != VendorID {
		return FlowBufferConfig{}, fmt.Errorf("%w: 0x%08x", ErrForeignVendor, v.Vendor)
	}
	if len(v.Data) < 4 {
		return FlowBufferConfig{}, fmt.Errorf("%w: vendor payload needs subheader", ErrTruncated)
	}
	if subtype := binary.BigEndian.Uint16(v.Data[0:2]); subtype != FlowBufSubtypeConfig {
		return FlowBufferConfig{}, fmt.Errorf("openflow: unknown flow buffer subtype %d", subtype)
	}
	// Accept the legacy 12-byte body (pre-retry-policy peers) alongside the
	// extended 20-byte body; missing fields decode as zero, which means
	// retry-forever — the legacy semantics.
	if len(v.Data) < flowBufferConfigLenV1 {
		return FlowBufferConfig{}, fmt.Errorf("%w: flow buffer config payload %d bytes", ErrTruncated, len(v.Data))
	}
	c := FlowBufferConfig{
		Granularity:        BufferGranularity(v.Data[4]),
		RerequestTimeoutMs: binary.BigEndian.Uint32(v.Data[8:12]),
		MaxPacketsPerFlow:  binary.BigEndian.Uint32(v.Data[12:16]),
	}
	if len(v.Data) >= flowBufferConfigLen {
		c.MaxRerequests = binary.BigEndian.Uint32(v.Data[16:20])
		c.RerequestBackoffPct = binary.BigEndian.Uint32(v.Data[20:24])
	}
	if !c.Granularity.Valid() {
		return FlowBufferConfig{}, fmt.Errorf("openflow: invalid buffer granularity %d", v.Data[4])
	}
	return c, nil
}
