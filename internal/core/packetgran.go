package core

import (
	"fmt"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/telemetry"
)

// PacketGranularity is the OpenFlow default buffer mechanism: every
// miss-match packet gets its own buffer unit with an exclusive buffer_id,
// and every miss-match packet triggers its own packet_in carrying only the
// first MissSendLen bytes. One packet_out releases exactly one packet.
//
// When the pool is exhausted the mechanism falls back to the no-buffer path
// for that packet (full payload, buffer_id == NoBuffer), which is the knee
// visible in the paper's buffer-16 curves once the sending rate outruns the
// release rate.
type PacketGranularity struct {
	pool        *Pool
	missSendLen int
	packetIns   uint64
	fallbacks   uint64

	tel *telemetry.Recorder // nil unless the testbed wires telemetry
}

var _ Mechanism = (*PacketGranularity)(nil)

// NewPacketGranularity creates the default buffer mechanism over a pool of
// the given capacity. missSendLen is the packet_in payload truncation;
// expiry bounds buffered-packet lifetime (0 = no expiry).
func NewPacketGranularity(capacity, missSendLen int, expiry time.Duration) (*PacketGranularity, error) {
	if missSendLen <= 0 {
		return nil, fmt.Errorf("core: miss_send_len must be positive, got %d", missSendLen)
	}
	pool, err := NewPool(capacity, expiry)
	if err != nil {
		return nil, err
	}
	return &PacketGranularity{pool: pool, missSendLen: missSendLen}, nil
}

// Granularity implements Mechanism.
func (*PacketGranularity) Granularity() openflow.BufferGranularity {
	return openflow.GranularityPacket
}

// SetTelemetry wires the recorder the mechanism emits buffer-enqueue spans
// into (nil disables; the default).
func (m *PacketGranularity) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// HandleMiss implements Mechanism: buffer the packet in its own unit and
// report only a header prefix, or fall back to the full-packet path when the
// pool is exhausted.
func (m *PacketGranularity) HandleMiss(now time.Duration, inPort uint16, data []byte, key packet.FlowKey) MissResult {
	m.packetIns++
	u, err := m.pool.Store(now, inPort, data)
	if err != nil {
		m.fallbacks++
		return MissResult{
			PacketIn: &openflow.PacketIn{
				BufferID: openflow.NoBuffer,
				TotalLen: uint16(len(data)),
				InPort:   inPort,
				Reason:   openflow.ReasonNoMatch,
				Data:     data,
			},
			Fallback: true,
		}
	}
	if m.tel != nil {
		m.tel.Instant(telemetry.KindBufferEnqueue, now, telemetry.HashKey(key), u.ID, uint32(len(data)))
		m.tel.FlowBuffered(key, len(data))
	}
	return MissResult{
		PacketIn: &openflow.PacketIn{
			BufferID: u.ID,
			TotalLen: uint16(len(data)),
			InPort:   inPort,
			Reason:   openflow.ReasonNoMatch,
			Data:     truncate(data, m.missSendLen),
		},
		Buffered: true,
	}
}

// Release implements Mechanism: one id, one packet.
func (m *PacketGranularity) Release(now time.Duration, bufferID uint32) ([]Released, error) {
	u, err := m.pool.Release(now, bufferID)
	if err != nil {
		return nil, err
	}
	out := make([]Released, len(u.Packets))
	for i, bp := range u.Packets {
		out[i] = Released{Data: bp.Data, InPort: bp.InPort, BufferedAt: bp.BufferedAt}
	}
	return out, nil
}

// Drop implements Mechanism.
func (m *PacketGranularity) Drop(now time.Duration, bufferID uint32) error {
	_, err := m.pool.Release(now, bufferID)
	return err
}

// NextDeadline implements Mechanism: only buffer expiry needs ticks.
func (m *PacketGranularity) NextDeadline() (time.Duration, bool) {
	if m.pool.expiry == 0 || m.pool.Live() == 0 {
		return 0, false
	}
	next := time.Duration(0)
	found := false
	for _, id := range m.pool.order {
		u, ok := m.pool.units[id]
		if !ok {
			continue
		}
		d := u.CreatedAt + m.pool.expiry
		if !found || d < next {
			next, found = d, true
		}
	}
	return next, found
}

// Tick implements Mechanism: drop expired units. The default mechanism never
// re-requests, so no packet_ins are produced.
func (m *PacketGranularity) Tick(now time.Duration) []*openflow.PacketIn {
	m.pool.Expire(now)
	return nil
}

// Stats implements Mechanism.
func (m *PacketGranularity) Stats(now time.Duration) openflow.FlowBufferStats {
	return openflow.FlowBufferStats{
		UnitsInUse:      uint32(m.pool.InUse(now)),
		UnitsCapacity:   uint32(m.pool.Capacity()),
		PacketIns:       m.packetIns,
		DroppedNoBuffer: m.fallbacks,
		BytesInUse:      uint64(m.pool.BytesInUse()),
		BytesHighWater:  uint64(m.pool.BytesHighWater()),
		RejectedBytes:   m.pool.RejectedBytes(),
	}
}

// OccupancyMean implements Mechanism.
func (m *PacketGranularity) OccupancyMean(now time.Duration) float64 {
	return m.pool.OccupancyMean(now)
}

// OccupancyMax implements Mechanism.
func (m *PacketGranularity) OccupancyMax() float64 { return m.pool.OccupancyMax() }

// Pool exposes the underlying pool for tests and stats collection.
func (m *PacketGranularity) Pool() *Pool { return m.pool }
