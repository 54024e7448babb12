package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/telemetry"
)

// flowState is the per-flow record behind the paper's buffer_id map
// (Algorithm 1): the shared buffer_id (which is also the flow's single
// buffer-unit slot), the re-request deadline, and the header template used
// to (re)build the flow's packet_in.
type flowState struct {
	key       packet.FlowKey
	bufferID  uint32
	createdAt time.Duration
	deadline  time.Duration
	timeout   time.Duration // current re-request wait, grown by the backoff
	attempts  int           // re-requests already sent for this flow
	header    *openflow.PacketIn
}

// RetryPolicy hardens the re-request loop against a lossy or dead control
// channel. MaxRerequests caps how many times a flow's packet_in is re-sent
// before the mechanism gives up on controller-driven release; BackoffPct
// grows each successive wait by that percentage (100 doubles it). Zero
// values keep the original behavior: retry forever at a fixed interval.
//
// On give-up the flow's buffer unit is released — never leaked — and the
// queued packets are handed back through the no-buffer full-packet path in
// arrival order, so the controller can still forward them; they are counted
// as fallbacks, and the abandoned flow as a giveup.
type RetryPolicy struct {
	MaxRerequests int
	BackoffPct    int
}

// FlowGranularity is the paper's proposed buffer mechanism (§V).
//
// Algorithm 1 (HandleMiss): the first miss-match packet of a flow is
// buffered in a fresh unit whose buffer_id derives from the 5-tuple, the id
// is recorded in the buffer_id map, and one packet_in carrying the packet's
// header prefix plus that buffer_id goes to the controller. Subsequent
// miss-match packets of the same flow are chained into the same unit without
// triggering packet_ins. If the control operation messages do not arrive
// before the re-request timeout, the packet_in is re-sent (Tick).
//
// Algorithm 2 (Release): one packet_out referencing the buffer_id drains the
// whole per-flow queue in arrival order and frees the single unit at once —
// which is why the mechanism's occupancy tracks the number of in-flight
// flows rather than the number of in-flight packets (paper Fig. 13), the
// source of its claimed 71.6% buffer-utilization improvement.
type FlowGranularity struct {
	pool             *Pool
	missSendLen      int
	rerequestTimeout time.Duration
	maxPerFlow       int
	retry            RetryPolicy
	flows            map[packet.FlowKey]*flowState
	byID             map[uint32]*flowState
	order            []*flowState // insertion order, for deterministic sweeps

	packetIns  uint64
	rerequests uint64
	fallbacks  uint64
	giveups    uint64

	tel *telemetry.Recorder // nil unless the testbed wires telemetry
}

var _ Mechanism = (*FlowGranularity)(nil)

// NewFlowGranularity creates the proposed mechanism. rerequestTimeout is
// Algorithm 1's timer (must be positive: without it a lost flow_mod would
// strand buffered packets forever). maxPerFlow bounds one flow's queue (0 =
// unbounded). expiry bounds total buffered-flow lifetime (0 = no expiry).
func NewFlowGranularity(capacity, missSendLen int, rerequestTimeout time.Duration, maxPerFlow int, expiry time.Duration) (*FlowGranularity, error) {
	if missSendLen <= 0 {
		return nil, fmt.Errorf("core: miss_send_len must be positive, got %d", missSendLen)
	}
	if rerequestTimeout <= 0 {
		return nil, fmt.Errorf("core: re-request timeout must be positive, got %v", rerequestTimeout)
	}
	if maxPerFlow < 0 {
		return nil, fmt.Errorf("core: negative max packets per flow %d", maxPerFlow)
	}
	pool, err := NewPool(capacity, expiry)
	if err != nil {
		return nil, err
	}
	return &FlowGranularity{
		pool:             pool,
		missSendLen:      missSendLen,
		rerequestTimeout: rerequestTimeout,
		maxPerFlow:       maxPerFlow,
		flows:            make(map[packet.FlowKey]*flowState),
		byID:             make(map[uint32]*flowState),
	}, nil
}

// SetRetryPolicy installs the re-request hardening policy. Call before
// traffic; it applies to flows buffered afterwards.
func (m *FlowGranularity) SetRetryPolicy(p RetryPolicy) error {
	if p.MaxRerequests < 0 {
		return fmt.Errorf("core: negative re-request cap %d", p.MaxRerequests)
	}
	if p.BackoffPct < 0 {
		return fmt.Errorf("core: negative re-request backoff %d%%", p.BackoffPct)
	}
	m.retry = p
	return nil
}

// RetryPolicy reports the installed hardening policy.
func (m *FlowGranularity) RetryPolicy() RetryPolicy { return m.retry }

// SetMissSendLen implements Mechanism. A flow already buffered keeps the
// packet_in it was announced with for its re-requests.
func (m *FlowGranularity) SetMissSendLen(n int) { m.missSendLen = n }

// SetTelemetry wires the recorder the mechanism emits buffer-lifecycle
// spans and flow-record updates into (nil disables; the default).
func (m *FlowGranularity) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// Granularity implements Mechanism.
func (*FlowGranularity) Granularity() openflow.BufferGranularity {
	return openflow.GranularityFlow
}

// flowBufferID derives the flow's buffer_id from its 5-tuple, as the paper
// specifies ("calculated based on the tuple of (src_ip, src_port, dst_ip,
// dst_port, protocol)"), probing past ids already held by other live flows
// and the NoBuffer sentinel. The pool is private, so probing its units is
// redundant with byID; it keeps the id fresh even if the two ever diverge.
func (m *FlowGranularity) flowBufferID(key packet.FlowKey) uint32 {
	h := fnv.New32a()
	src := key.SrcIP.As4()
	dst := key.DstIP.As4()
	var b [13]byte
	copy(b[0:4], src[:])
	copy(b[4:8], dst[:])
	binary.BigEndian.PutUint16(b[8:10], key.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], key.DstPort)
	b[12] = key.Proto
	_, _ = h.Write(b[:]) // fnv never errors
	id := h.Sum32()
	for {
		if id != openflow.NoBuffer {
			if _, taken := m.byID[id]; !taken {
				if _, live := m.pool.units[id]; !live {
					return id
				}
			}
		}
		id++
	}
}

// HandleMiss implements Mechanism (Algorithm 1).
func (m *FlowGranularity) HandleMiss(now time.Duration, inPort uint16, data []byte, key packet.FlowKey) MissResult {
	fallback := func() MissResult {
		m.fallbacks++
		m.packetIns++
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

	if st, known := m.flows[key]; known {
		// Subsequent packet of an already-reported flow: chain it into the
		// flow's unit silently (Algorithm 1 line 11). The re-request timer
		// keeps running from the pending request.
		u, ok := m.pool.Peek(st.bufferID)
		if !ok {
			// Internal invariant broken; fail safe via the full-packet path.
			return fallback()
		}
		if m.maxPerFlow > 0 && len(u.Packets) >= m.maxPerFlow {
			// The flow's queue is at its bound; this packet takes the
			// full-packet path so one heavy flow cannot hog memory.
			return fallback()
		}
		if err := m.pool.Append(now, st.bufferID, inPort, data); err != nil {
			return fallback()
		}
		if m.tel != nil {
			m.tel.Instant(telemetry.KindBufferEnqueue, now, telemetry.HashKey(key), st.bufferID, uint32(len(data)))
			m.tel.FlowBuffered(key, len(data))
		}
		return MissResult{Buffered: true}
	}

	// First packet of the flow: allocate the flow's unit under the
	// tuple-derived id and send the flow's single packet_in (Algorithm 1
	// lines 7-9).
	id := m.flowBufferID(key)
	if _, err := m.pool.StoreAs(now, id, inPort, data); err != nil {
		// Pool exhausted: fall back to the no-buffer path for this packet.
		return fallback()
	}
	st := &flowState{
		key:       key,
		bufferID:  id,
		createdAt: now,
		deadline:  now + m.rerequestTimeout,
		timeout:   m.rerequestTimeout,
		header: &openflow.PacketIn{
			BufferID: id,
			TotalLen: uint16(len(data)),
			InPort:   inPort,
			Reason:   openflow.ReasonNoMatch,
			Data:     truncate(data, m.missSendLen),
		},
	}
	m.flows[key] = st
	m.byID[id] = st
	m.order = append(m.order, st)
	m.packetIns++
	if m.tel != nil {
		m.tel.Instant(telemetry.KindBufferEnqueue, now, telemetry.HashKey(key), id, uint32(len(data)))
		m.tel.FlowBuffered(key, len(data))
	}
	return MissResult{PacketIn: st.header, Buffered: true}
}

// Release implements Mechanism (Algorithm 2): drain the whole per-flow
// queue in arrival order and free its unit.
func (m *FlowGranularity) Release(now time.Duration, bufferID uint32) ([]Released, error) {
	st, ok := m.byID[bufferID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBufferID, bufferID)
	}
	u, err := m.pool.Release(now, bufferID)
	if err != nil {
		return nil, fmt.Errorf("core: flow %v lost its unit: %w", st.key, err)
	}
	m.forget(st)
	out := make([]Released, len(u.Packets))
	for i, bp := range u.Packets {
		out[i] = Released{Data: bp.Data, InPort: bp.InPort, BufferedAt: bp.BufferedAt}
	}
	return out, nil
}

// Drop implements Mechanism: discard the whole per-flow queue.
func (m *FlowGranularity) Drop(now time.Duration, bufferID uint32) error {
	st, ok := m.byID[bufferID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBufferID, bufferID)
	}
	if _, err := m.pool.Release(now, bufferID); err != nil {
		return fmt.Errorf("core: flow %v lost its unit: %w", st.key, err)
	}
	m.forget(st)
	return nil
}

func (m *FlowGranularity) forget(st *flowState) {
	delete(m.flows, st.key)
	delete(m.byID, st.bufferID)
	for i, o := range m.order {
		if o == st {
			copy(m.order[i:], m.order[i+1:])
			m.order[len(m.order)-1] = nil
			m.order = m.order[:len(m.order)-1]
			break
		}
	}
}

// NextDeadline implements Mechanism: the earliest re-request or expiry
// instant across buffered flows.
func (m *FlowGranularity) NextDeadline() (time.Duration, bool) {
	next := time.Duration(0)
	found := false
	consider := func(d time.Duration) {
		if !found || d < next {
			next, found = d, true
		}
	}
	for _, st := range m.order {
		consider(st.deadline)
		if m.pool.expiry > 0 {
			consider(st.createdAt + m.pool.expiry)
		}
	}
	return next, found
}

// Tick implements Mechanism: expire overdue flows, re-send the packet_in
// for flows whose re-request timer has fired (Algorithm 1 lines 12-13), and
// — with a RetryPolicy installed — give up on flows that exhausted their
// re-request budget, draining their queues via the no-buffer full-packet
// path so the pool unit is released rather than leaked.
func (m *FlowGranularity) Tick(now time.Duration) []*openflow.PacketIn {
	var resend []*openflow.PacketIn
	// Collect first: forget() mutates the bookkeeping. Iterate in insertion
	// order so re-requests and give-up fallbacks are emitted
	// deterministically.
	var expired, abandoned []*flowState
	for _, st := range m.order {
		if m.pool.expiry > 0 && now-st.createdAt >= m.pool.expiry {
			expired = append(expired, st)
			continue
		}
		if now < st.deadline {
			continue
		}
		if m.retry.MaxRerequests > 0 && st.attempts >= m.retry.MaxRerequests {
			abandoned = append(abandoned, st)
			continue
		}
		st.attempts++
		if m.retry.BackoffPct > 0 {
			st.timeout += st.timeout * time.Duration(m.retry.BackoffPct) / 100
		}
		st.deadline = now + st.timeout
		m.rerequests++
		m.packetIns++
		if m.tel != nil {
			m.tel.Instant(telemetry.KindRerequest, now, telemetry.HashKey(st.key), st.bufferID, 0)
			m.tel.FlowRerequest(st.key)
		}
		resend = append(resend, st.header)
	}
	for _, st := range expired {
		_, _ = m.pool.DiscardExpired(now, st.bufferID) // expiring; unit must exist
		m.forget(st)
	}
	for _, st := range abandoned {
		// Give up on controller-driven release: free the unit and hand every
		// queued packet back as a full-payload no-buffer packet_in, in arrival
		// order. Ownership of the packet bytes transfers to the packet_ins;
		// the pool slot is reclaimed here, so nothing leaks even if the
		// control channel stays dead.
		u, err := m.pool.Release(now, st.bufferID)
		m.forget(st)
		m.giveups++
		if m.tel != nil {
			m.tel.Instant(telemetry.KindGiveup, now, telemetry.HashKey(st.key), st.bufferID, 0)
			m.tel.FlowGiveup(st.key)
		}
		if err != nil {
			continue // invariant broken; forget() already dropped the records
		}
		for _, bp := range u.Packets {
			m.fallbacks++
			m.packetIns++
			resend = append(resend, &openflow.PacketIn{
				BufferID: openflow.NoBuffer,
				TotalLen: uint16(len(bp.Data)),
				InPort:   bp.InPort,
				Reason:   openflow.ReasonNoMatch,
				Data:     bp.Data,
			})
		}
	}
	return resend
}

// Stats implements Mechanism.
func (m *FlowGranularity) Stats(now time.Duration) openflow.FlowBufferStats {
	return openflow.FlowBufferStats{
		UnitsInUse:      uint32(m.pool.InUse(now)),
		UnitsCapacity:   uint32(m.pool.Capacity()),
		FlowsBuffered:   uint32(len(m.flows)),
		PacketIns:       m.packetIns,
		Rerequests:      m.rerequests,
		DroppedNoBuffer: m.fallbacks,
		Giveups:         m.giveups,
		BytesInUse:      uint64(m.pool.BytesInUse()),
		BytesHighWater:  uint64(m.pool.BytesHighWater()),
		RejectedBytes:   m.pool.RejectedBytes(),
	}
}

// OccupancyMean implements Mechanism.
func (m *FlowGranularity) OccupancyMean(now time.Duration) float64 {
	return m.pool.OccupancyMean(now)
}

// OccupancyMax implements Mechanism.
func (m *FlowGranularity) OccupancyMax() float64 { return m.pool.OccupancyMax() }

// Pool exposes the underlying pool for tests and stats collection.
func (m *FlowGranularity) Pool() *Pool { return m.pool }

// FlowsBuffered reports the number of flows currently holding buffer state.
func (m *FlowGranularity) FlowsBuffered() int { return len(m.flows) }

// NewMechanism builds a mechanism from a wire-level configuration, the
// bridge between the vendor extension message and this package.
func NewMechanism(cfg openflow.FlowBufferConfig, capacity, missSendLen int, expiry time.Duration) (Mechanism, error) {
	switch cfg.Granularity {
	case openflow.GranularityNone:
		return NewNoBuffer(), nil
	case openflow.GranularityPacket:
		return NewPacketGranularity(capacity, missSendLen, expiry)
	case openflow.GranularityFlow:
		timeout := time.Duration(cfg.RerequestTimeoutMs) * time.Millisecond
		fg, err := NewFlowGranularity(capacity, missSendLen, timeout, int(cfg.MaxPacketsPerFlow), expiry)
		if err != nil {
			return nil, err
		}
		if err := fg.SetRetryPolicy(RetryPolicy{
			MaxRerequests: int(cfg.MaxRerequests),
			BackoffPct:    int(cfg.RerequestBackoffPct),
		}); err != nil {
			return nil, err
		}
		return fg, nil
	default:
		return nil, fmt.Errorf("core: invalid granularity %d", uint8(cfg.Granularity))
	}
}
