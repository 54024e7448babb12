package core

import (
	"fmt"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// Released is one buffered packet handed back to the datapath for
// forwarding, in arrival order.
type Released struct {
	Data       []byte
	InPort     uint16
	BufferedAt time.Duration
}

// MissResult is what a mechanism decides for one miss-match packet.
type MissResult struct {
	// PacketIn is the request message to send to the controller, or nil
	// when no request is needed (a subsequent packet of an already-reported
	// flow under flow granularity).
	PacketIn *openflow.PacketIn
	// Buffered reports whether the packet was stored in the buffer pool.
	// When false and PacketIn is non-nil, the packet travels in full inside
	// the request (the no-buffer path or a pool-exhaustion fallback).
	Buffered bool
	// Fallback reports that buffering was attempted but the pool was
	// exhausted, forcing the full-packet path.
	Fallback bool
}

// Mechanism is the buffer behaviour the switch datapath drives. The
// datapath calls HandleMiss for every packet that misses the flow table and
// Release for every packet_out (or buffered flow_mod) that references a
// buffer id. Implementations are not safe for concurrent use; the datapath
// serializes access (in sim mode everything runs on the event loop, in live
// mode the datapath holds its own lock).
type Mechanism interface {
	// Granularity identifies the mechanism.
	Granularity() openflow.BufferGranularity

	// HandleMiss processes one miss-match packet: data is the wire-format
	// frame, key its 5-tuple. The returned MissResult tells the datapath
	// whether to send a packet_in and whether the packet is now buffered.
	HandleMiss(now time.Duration, inPort uint16, data []byte, key packet.FlowKey) MissResult

	// Release handles a controller reference to bufferID: it removes the
	// corresponding packet(s) from the buffer and returns them in arrival
	// order for forwarding. It returns ErrUnknownBufferID for stale or
	// foreign ids.
	Release(now time.Duration, bufferID uint32) ([]Released, error)

	// Drop discards the packet(s) under bufferID without forwarding (a
	// packet_out with an empty action list). Dropping an unknown id is an
	// error, like Release.
	Drop(now time.Duration, bufferID uint32) error

	// NextDeadline reports the earliest future instant at which the
	// mechanism wants a Tick (for re-request timers and buffer expiry), and
	// false if it has no pending work. The simulator uses it to schedule
	// sweeps without polling.
	NextDeadline() (time.Duration, bool)

	// Tick runs timer work due at now: re-request packet_ins to resend
	// (flow granularity) after a timeout, and expired buffer drops.
	Tick(now time.Duration) []*openflow.PacketIn

	// SetMissSendLen sets how many bytes of a buffered packet the packet_ins
	// from now on carry (a controller's SET_CONFIG miss_send_len; n > 0).
	SetMissSendLen(n int)

	// Stats reports the mechanism's counters and occupancy snapshot.
	Stats(now time.Duration) openflow.FlowBufferStats

	// OccupancyMean and OccupancyMax expose the paper's buffer-utilization
	// metric (Figs. 8 and 13): time-averaged and peak units in use.
	OccupancyMean(now time.Duration) float64
	OccupancyMax() float64
}

// truncate returns the first n bytes of data (the packet_in payload under
// buffering: miss_send_len bytes, per the spec).
func truncate(data []byte, n int) []byte {
	if n <= 0 || n >= len(data) {
		return data
	}
	return data[:n]
}

// NoBuffer is the baseline mechanism: buffering disabled. Every miss-match
// packet is sent to the controller in full, and packet_out messages carry
// the full packet back. Nothing is ever stored, so Release and Drop always
// fail and deadlines never arise.
type NoBuffer struct {
	packetIns uint64
}

var _ Mechanism = (*NoBuffer)(nil)

// NewNoBuffer creates the baseline mechanism.
func NewNoBuffer() *NoBuffer { return &NoBuffer{} }

// Granularity implements Mechanism.
func (*NoBuffer) Granularity() openflow.BufferGranularity { return openflow.GranularityNone }

// HandleMiss implements Mechanism: full packet in the request, nothing
// buffered.
func (n *NoBuffer) HandleMiss(_ time.Duration, inPort uint16, data []byte, _ packet.FlowKey) MissResult {
	n.packetIns++
	return MissResult{
		PacketIn: &openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			TotalLen: uint16(len(data)),
			InPort:   inPort,
			Reason:   openflow.ReasonNoMatch,
			Data:     data,
		},
		Buffered: false,
	}
}

// Release implements Mechanism: no ids are ever valid.
func (*NoBuffer) Release(_ time.Duration, bufferID uint32) ([]Released, error) {
	return nil, fmt.Errorf("%w: %d (buffering disabled)", ErrUnknownBufferID, bufferID)
}

// Drop implements Mechanism.
func (*NoBuffer) Drop(_ time.Duration, bufferID uint32) error {
	return fmt.Errorf("%w: %d (buffering disabled)", ErrUnknownBufferID, bufferID)
}

// SetMissSendLen implements Mechanism: nothing is truncated.
func (*NoBuffer) SetMissSendLen(int) {}

// NextDeadline implements Mechanism: never.
func (*NoBuffer) NextDeadline() (time.Duration, bool) { return 0, false }

// Tick implements Mechanism: nothing to do.
func (*NoBuffer) Tick(time.Duration) []*openflow.PacketIn { return nil }

// Stats implements Mechanism.
func (n *NoBuffer) Stats(time.Duration) openflow.FlowBufferStats {
	return openflow.FlowBufferStats{PacketIns: n.packetIns}
}

// OccupancyMean implements Mechanism: always zero.
func (*NoBuffer) OccupancyMean(time.Duration) float64 { return 0 }

// OccupancyMax implements Mechanism: always zero.
func (*NoBuffer) OccupancyMax() float64 { return 0 }
