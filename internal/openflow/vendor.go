package openflow

import (
	"encoding/binary"
	"fmt"
)

// VendorID identifies this library's experimenter extension, which carries
// the paper's flow-granularity buffer mechanism. The OpenFlow buffer model
// itself (buffer_id in packet_in / packet_out / flow_mod) is standard; what
// the paper adds — one buffer_id per flow, shared by all queued packets, with
// a re-request timeout — needs extra configuration and statistics messages,
// and the spec's extension point for those is the vendor (experimenter)
// message.
const VendorID uint32 = 0x00F17B0F

// Vendor subtypes for the flow-granularity buffer extension.
const (
	FlowBufSubtypeConfig       uint16 = 1
	FlowBufSubtypeConfigReply  uint16 = 2
	FlowBufSubtypeStatsRequest uint16 = 3
	FlowBufSubtypeStatsReply   uint16 = 4
)

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
// Typed extension bodies are encoded into / decoded from Data with
// EncodeFlowBufferConfig and ParseVendor.
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

// FlowBufferStats reports buffer occupancy and mechanism counters
// (switch-to-controller, answering a stats request). Giveups counts flows
// abandoned after exhausting the re-request budget; their queued packets are
// reported through the mechanism's fallback counter, not lost. A legacy
// 36-byte stats body decodes with Giveups == 0, and a 44-byte body with the
// byte-occupancy fields zero — older peers keep interoperating.
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

const (
	flowBufferStatsLenV1 = 4 + 36
	flowBufferStatsLenV2 = 4 + 44
	flowBufferStatsLen   = 4 + 68
)

// EncodeFlowBufferStatsRequest builds the stats request Vendor message.
func EncodeFlowBufferStatsRequest() *Vendor {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:2], FlowBufSubtypeStatsRequest)
	return &Vendor{Vendor: VendorID, Data: data}
}

// EncodeFlowBufferStats wraps the stats into a Vendor reply message.
func EncodeFlowBufferStats(s FlowBufferStats) *Vendor {
	data := make([]byte, flowBufferStatsLen)
	binary.BigEndian.PutUint16(data[0:2], FlowBufSubtypeStatsReply)
	binary.BigEndian.PutUint32(data[4:8], s.UnitsInUse)
	binary.BigEndian.PutUint32(data[8:12], s.UnitsCapacity)
	binary.BigEndian.PutUint32(data[12:16], s.FlowsBuffered)
	binary.BigEndian.PutUint64(data[16:24], s.PacketIns)
	binary.BigEndian.PutUint64(data[24:32], s.Rerequests)
	binary.BigEndian.PutUint64(data[32:40], s.DroppedNoBuffer)
	binary.BigEndian.PutUint64(data[40:48], s.Giveups)
	binary.BigEndian.PutUint64(data[48:56], s.BytesInUse)
	binary.BigEndian.PutUint64(data[56:64], s.BytesHighWater)
	binary.BigEndian.PutUint64(data[64:72], s.RejectedBytes)
	return &Vendor{Vendor: VendorID, Data: data}
}

// VendorPayload is the decoded form of one of this extension's messages:
// exactly one field is non-nil.
type VendorPayload struct {
	Config       *FlowBufferConfig
	StatsRequest bool
	Stats        *FlowBufferStats
}

// ErrForeignVendor reports a vendor message from a different experimenter.
var ErrForeignVendor = fmt.Errorf("openflow: vendor message from foreign experimenter")

// ParseVendor decodes a Vendor message belonging to this extension.
func ParseVendor(v *Vendor) (*VendorPayload, error) {
	if v.Vendor != VendorID {
		return nil, fmt.Errorf("%w: 0x%08x", ErrForeignVendor, v.Vendor)
	}
	if len(v.Data) < 4 {
		return nil, fmt.Errorf("%w: vendor payload needs subheader", ErrTruncated)
	}
	subtype := binary.BigEndian.Uint16(v.Data[0:2])
	switch subtype {
	case FlowBufSubtypeConfig:
		// Accept the legacy 12-byte body (pre-retry-policy peers) alongside
		// the extended 20-byte body; missing fields decode as zero, which
		// means retry-forever — the legacy semantics.
		if len(v.Data) < flowBufferConfigLenV1 {
			return nil, fmt.Errorf("%w: flow buffer config payload %d bytes", ErrTruncated, len(v.Data))
		}
		c := &FlowBufferConfig{
			Granularity:        BufferGranularity(v.Data[4]),
			RerequestTimeoutMs: binary.BigEndian.Uint32(v.Data[8:12]),
			MaxPacketsPerFlow:  binary.BigEndian.Uint32(v.Data[12:16]),
		}
		if len(v.Data) >= flowBufferConfigLen {
			c.MaxRerequests = binary.BigEndian.Uint32(v.Data[16:20])
			c.RerequestBackoffPct = binary.BigEndian.Uint32(v.Data[20:24])
		}
		if !c.Granularity.Valid() {
			return nil, fmt.Errorf("openflow: invalid buffer granularity %d", v.Data[4])
		}
		return &VendorPayload{Config: c}, nil
	case FlowBufSubtypeStatsRequest:
		return &VendorPayload{StatsRequest: true}, nil
	case FlowBufSubtypeStatsReply:
		if len(v.Data) < flowBufferStatsLenV1 {
			return nil, fmt.Errorf("%w: flow buffer stats payload %d bytes", ErrTruncated, len(v.Data))
		}
		s := &FlowBufferStats{
			UnitsInUse:      binary.BigEndian.Uint32(v.Data[4:8]),
			UnitsCapacity:   binary.BigEndian.Uint32(v.Data[8:12]),
			FlowsBuffered:   binary.BigEndian.Uint32(v.Data[12:16]),
			PacketIns:       binary.BigEndian.Uint64(v.Data[16:24]),
			Rerequests:      binary.BigEndian.Uint64(v.Data[24:32]),
			DroppedNoBuffer: binary.BigEndian.Uint64(v.Data[32:40]),
		}
		if len(v.Data) >= flowBufferStatsLenV2 {
			s.Giveups = binary.BigEndian.Uint64(v.Data[40:48])
		}
		if len(v.Data) >= flowBufferStatsLen {
			s.BytesInUse = binary.BigEndian.Uint64(v.Data[48:56])
			s.BytesHighWater = binary.BigEndian.Uint64(v.Data[56:64])
			s.RejectedBytes = binary.BigEndian.Uint64(v.Data[64:72])
		}
		return &VendorPayload{Stats: s}, nil
	default:
		return nil, fmt.Errorf("openflow: unknown flow buffer subtype %d", subtype)
	}
}
