// Package core implements the paper's contribution: the SDN switch buffer.
//
// Three mechanisms are provided, all behind the Mechanism interface the
// switch datapath drives:
//
//   - NoBuffer: buffering disabled. Every miss-match packet travels in full
//     inside packet_in (buffer_id == OFP_NO_BUFFER). This is the OpenFlow
//     default configuration and the paper's baseline.
//   - PacketGranularity: the spec's buffer behaviour (§IV of the paper).
//     Each miss-match packet is stored in its own buffer unit and triggers
//     its own packet_in carrying only a header prefix plus the buffer_id.
//   - FlowGranularity: the paper's proposed mechanism (§V, Algorithms 1-2).
//     All miss-match packets of one flow share a single buffer unit keyed on
//     the 5-tuple; only the first packet triggers a packet_in, and a single
//     packet_out releases the whole queue in arrival order. A re-request
//     timer resends the packet_in if control operation messages never come
//     back.
//
// A buffer *unit* is a buffer_id slot, matching how the paper counts
// "buffer utilization" (Figs. 8 and 13): the packet-granularity mechanism
// occupies one unit per buffered packet, while the flow-granularity
// mechanism chains every buffered packet of a flow into one unit — which is
// exactly where its claimed 71.6% utilization improvement comes from.
//
// Units support lazy reclamation: a released unit's slot stays accounted
// (and unavailable) for a configurable delay, modelling the deferred buffer
// cleanup of a real software switch. This is what makes a small pool
// (buffer-16) exhaust at moderate sending rates even though individual
// round trips are fast, reproducing the knees in the paper's Figs. 2-8.
package core

import (
	"errors"
	"fmt"
	"time"

	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/openflow"
)

// Pool errors.
var (
	// ErrPoolExhausted reports that no buffer unit is free. The datapath
	// reacts the way OpenFlow prescribes: fall back to sending the entire
	// packet with buffer_id == NoBuffer.
	ErrPoolExhausted = errors.New("core: buffer pool exhausted")
	// ErrUnknownBufferID reports a release for an id not currently stored —
	// the switch answers the controller with OFPBRC_BUFFER_UNKNOWN.
	ErrUnknownBufferID = errors.New("core: unknown buffer id")
)

// BufferedPacket is one packet stored inside a buffer unit.
type BufferedPacket struct {
	Data       []byte
	InPort     uint16
	BufferedAt time.Duration
}

// Unit is one occupied buffer unit: a buffer_id slot holding one packet
// (packet granularity) or a whole flow's queue (flow granularity).
type Unit struct {
	ID        uint32
	Packets   []BufferedPacket
	CreatedAt time.Duration
	Bytes     int // sum of len(Packets[i].Data)
}

// Pool is a bounded set of buffer units with id allocation, occupancy
// accounting, lazy slot reclamation and age-based expiry. It does not
// impose a mechanism; the mechanisms in this package compose it.
type Pool struct {
	capacity     int
	expiry       time.Duration
	reclaimDelay time.Duration

	units      map[uint32]*Unit
	order      []uint32        // insertion order, for expiry scans
	reclaiming []time.Duration // freeAt instants, non-decreasing
	nextID     uint32

	occupancy metrics.Gauge
	byteOcc   metrics.Gauge
	bytesLive int64  // bytes held by live units (freed immediately on remove)
	bytesHigh int64  // high-water mark of bytesLive
	stored    uint64 // packets stored
	released  uint64 // packets released
	expired   uint64 // packets expired
	rejected  uint64 // store attempts rejected for want of a free unit
	rejBytes  uint64 // bytes those rejected stores carried
}

// NewPool creates a pool of capacity units. expiry bounds how long a unit
// may stay buffered before it is dropped (the spec lets switches reclaim
// buffers whose packet_in was never answered); 0 disables expiry.
func NewPool(capacity int, expiry time.Duration) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: pool capacity must be positive, got %d", capacity)
	}
	if expiry < 0 {
		return nil, fmt.Errorf("core: negative expiry %v", expiry)
	}
	return &Pool{
		capacity: capacity,
		expiry:   expiry,
		units:    make(map[uint32]*Unit, capacity),
	}, nil
}

// SetReclaimDelay configures lazy reclamation: a released or expired unit's
// slot stays occupied for d after release. Configure before first use.
func (p *Pool) SetReclaimDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.reclaimDelay = d
}

// ReclaimDelay reports the configured reclamation delay.
func (p *Pool) ReclaimDelay() time.Duration { return p.reclaimDelay }

// Capacity reports the configured unit count.
func (p *Pool) Capacity() int { return p.capacity }

// sweep frees reclaiming slots whose delay has elapsed. It must be called
// with the current time before any occupancy decision or reading.
func (p *Pool) sweep(now time.Duration) {
	i := 0
	for i < len(p.reclaiming) && p.reclaiming[i] <= now {
		i++
	}
	if i > 0 {
		p.reclaiming = p.reclaiming[i:]
		p.occupancy.Set(now, float64(p.occupied()))
	}
}

// occupied counts live plus still-reclaiming slots.
func (p *Pool) occupied() int { return len(p.units) + len(p.reclaiming) }

// InUse reports the number of occupied units (live and reclaiming) at now.
func (p *Pool) InUse(now time.Duration) int {
	p.sweep(now)
	return p.occupied()
}

// Live reports the number of addressable (not yet released) units.
func (p *Pool) Live() int { return len(p.units) }

// Free reports the number of available units at now.
func (p *Pool) Free(now time.Duration) int {
	p.sweep(now)
	return p.capacity - p.occupied()
}

// Store buffers a packet in a fresh unit with a newly allocated id.
func (p *Pool) Store(now time.Duration, inPort uint16, data []byte) (*Unit, error) {
	return p.store(now, 0, false, inPort, data)
}

// StoreAs buffers a packet in a fresh unit under a caller-chosen id (the
// flow-granularity mechanism derives ids from the 5-tuple). Storing under an
// id already in use is a caller bug and fails.
func (p *Pool) StoreAs(now time.Duration, id uint32, inPort uint16, data []byte) (*Unit, error) {
	return p.store(now, id, true, inPort, data)
}

func (p *Pool) store(now time.Duration, id uint32, explicit bool, inPort uint16, data []byte) (*Unit, error) {
	p.sweep(now)
	if p.occupied() >= p.capacity {
		p.rejected++
		p.rejBytes += uint64(len(data))
		return nil, fmt.Errorf("%w: %d units occupied", ErrPoolExhausted, p.occupied())
	}
	if explicit {
		if id == openflow.NoBuffer {
			return nil, fmt.Errorf("core: cannot store under reserved id NoBuffer")
		}
		if _, exists := p.units[id]; exists {
			return nil, fmt.Errorf("core: buffer id %d already in use", id)
		}
	} else {
		var err error
		if id, err = p.allocateID(); err != nil {
			return nil, err
		}
	}
	u := &Unit{
		ID:        id,
		Packets:   []BufferedPacket{{Data: data, InPort: inPort, BufferedAt: now}},
		CreatedAt: now,
		Bytes:     len(data),
	}
	p.units[id] = u
	p.order = append(p.order, id)
	p.stored++
	p.addBytes(now, int64(len(data)))
	p.occupancy.Set(now, float64(p.occupied()))
	return u, nil
}

// addBytes adjusts the live-byte tally (delta may be negative) and keeps
// the high-water mark and byte-occupancy gauge current.
func (p *Pool) addBytes(now time.Duration, delta int64) {
	p.bytesLive += delta
	if p.bytesLive > p.bytesHigh {
		p.bytesHigh = p.bytesLive
	}
	p.byteOcc.Set(now, float64(p.bytesLive))
}

// Append chains another packet into an existing unit. It consumes no extra
// unit: this is the flow-granularity path that lets a whole flow share one
// buffer_id slot.
func (p *Pool) Append(now time.Duration, id uint32, inPort uint16, data []byte) error {
	p.sweep(now)
	u, ok := p.units[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBufferID, id)
	}
	u.Packets = append(u.Packets, BufferedPacket{Data: data, InPort: inPort, BufferedAt: now})
	u.Bytes += len(data)
	p.stored++
	p.addBytes(now, int64(len(data)))
	return nil
}

// Release removes and returns the unit with the given id. The slot remains
// accounted as occupied for the reclamation delay.
func (p *Pool) Release(now time.Duration, id uint32) (*Unit, error) {
	p.sweep(now)
	u, ok := p.units[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBufferID, id)
	}
	p.remove(now, id)
	p.released += uint64(len(u.Packets))
	return u, nil
}

// DiscardExpired removes a unit like Release but accounts its packets as
// expired rather than released; mechanisms with their own expiry bookkeeping
// (flow granularity expires whole flows at once) use it instead of Expire.
func (p *Pool) DiscardExpired(now time.Duration, id uint32) (*Unit, error) {
	p.sweep(now)
	u, ok := p.units[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBufferID, id)
	}
	p.remove(now, id)
	p.expired += uint64(len(u.Packets))
	return u, nil
}

// remove deletes the unit and starts its slot's reclamation clock. The
// unit's bytes are freed immediately: reclamation models the slot (the
// buffer_id bookkeeping), not the packet memory, which a real switch hands
// back to the allocator on release.
func (p *Pool) remove(now time.Duration, id uint32) {
	if u, ok := p.units[id]; ok {
		p.addBytes(now, -int64(u.Bytes))
	}
	delete(p.units, id)
	if p.reclaimDelay > 0 {
		p.reclaiming = append(p.reclaiming, now+p.reclaimDelay)
	}
	// Compact the insertion-order list once released ids dominate it.
	// Expire compacts as a side effect, but with expiry disabled nothing
	// else prunes the list, and it would otherwise grow by one id per
	// released unit for the whole run. Amortized O(1): a compaction scans
	// at most 2·live+16 entries and drops more than half of them.
	if len(p.order) > 2*len(p.units)+16 {
		kept := p.order[:0]
		for _, oid := range p.order {
			if _, live := p.units[oid]; live {
				kept = append(kept, oid)
			}
		}
		p.order = kept
	}
	p.occupancy.Set(now, float64(p.occupied()))
}

// Peek returns the unit with the given id without releasing it.
func (p *Pool) Peek(id uint32) (*Unit, bool) {
	u, ok := p.units[id]
	return u, ok
}

// Expire drops units older than the pool's expiry and returns them. With
// expiry disabled it is a no-op.
func (p *Pool) Expire(now time.Duration) []*Unit {
	p.sweep(now)
	if p.expiry == 0 {
		return nil
	}
	var dropped []*Unit
	kept := p.order[:0]
	for _, id := range p.order {
		u, ok := p.units[id]
		if !ok {
			continue // already released; compact the order list
		}
		if now-u.CreatedAt >= p.expiry {
			p.remove(now, id)
			p.expired += uint64(len(u.Packets))
			dropped = append(dropped, u)
		} else {
			kept = append(kept, id)
		}
	}
	p.order = kept
	return dropped
}

// allocateID returns a fresh id, skipping ids in use and the NoBuffer
// sentinel.
//
// Invariant: store() admits a unit only when occupied() < capacity, and
// capacities are configured orders of magnitude below the 2^32−1 usable ids,
// so a free id always exists within one pass of the id space and the loop
// terminates long before the bound. The bound exists so that if that
// invariant is ever violated (a future caller bypassing the capacity check),
// allocation fails loudly instead of spinning forever.
func (p *Pool) allocateID() (uint32, error) {
	for tries := uint64(0); tries < uint64(openflow.NoBuffer); tries++ {
		p.nextID++
		if p.nextID == openflow.NoBuffer {
			p.nextID = 1
		}
		if _, used := p.units[p.nextID]; !used {
			return p.nextID, nil
		}
	}
	return 0, fmt.Errorf("core: all %d buffer ids in use", uint64(openflow.NoBuffer)-1)
}

// OccupancyMean reports the time-averaged units occupied up to now — the
// paper's buffer-utilization metric.
func (p *Pool) OccupancyMean(now time.Duration) float64 {
	p.sweep(now)
	p.occupancy.Finish(now)
	return p.occupancy.TimeAverage()
}

// OccupancyMax reports the peak units occupied.
func (p *Pool) OccupancyMax() float64 { return p.occupancy.Max() }

// BytesInUse reports the bytes currently held by live units.
func (p *Pool) BytesInUse() int64 { return p.bytesLive }

// BytesHighWater reports the peak bytes ever held at once.
func (p *Pool) BytesHighWater() int64 { return p.bytesHigh }

// ByteOccupancyMean reports the time-averaged buffered bytes up to now —
// the paper's Fig. 10 utilization metric in bytes rather than units.
func (p *Pool) ByteOccupancyMean(now time.Duration) float64 {
	p.byteOcc.Finish(now)
	return p.byteOcc.TimeAverage()
}

// RejectedBytes reports the bytes turned away by a full pool.
func (p *Pool) RejectedBytes() uint64 { return p.rejBytes }

// Counters reports lifetime packet counts: stored, released, expired, and
// store attempts rejected for exhaustion.
func (p *Pool) Counters() (stored, released, expired, rejected uint64) {
	return p.stored, p.released, p.expired, p.rejected
}
