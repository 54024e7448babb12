package core

import "time"

// BufferLoss summarizes a whole-buffer wipe: how many units, packets and
// bytes were destroyed. Switch crashes account the loss to a named drop
// reason with it.
type BufferLoss struct {
	Units   int
	Packets int
	Bytes   int64
}

// Add folds another loss in.
func (b *BufferLoss) Add(o BufferLoss) {
	b.Units += o.Units
	b.Packets += o.Packets
	b.Bytes += o.Bytes
}

// AllDropper is the optional Mechanism extension for losing every buffered
// packet at once — crash semantics. NoBuffer holds no state and does not
// implement it; callers treat a missing implementation as an empty loss.
type AllDropper interface {
	DropAll(now time.Duration) BufferLoss
}

// Rerequester is the optional Mechanism extension reporting whether a
// buffered unit will be re-offered to the controller by the re-request
// timer if its first install attempt is refused. Flow-granularity units
// re-request; packet-granularity units have no timer and are lost if the
// install fails. Callers treat a missing implementation as "no".
type Rerequester interface {
	WillRerequest(bufferID uint32) bool
}

// WillRerequest implements Rerequester: every parked flow state carries a
// re-request deadline, so a refused install is retried, not lost.
func (m *FlowGranularity) WillRerequest(bufferID uint32) bool {
	_, ok := m.byID[bufferID]
	return ok
}

// DropAll implements AllDropper: every buffered packet is destroyed and the
// units go back through the pool's reclamation path.
func (m *PacketGranularity) DropAll(now time.Duration) BufferLoss {
	var loss BufferLoss
	ids := append([]uint32(nil), m.pool.order...)
	for _, id := range ids {
		u, ok := m.pool.units[id]
		if !ok {
			continue
		}
		loss.Units++
		loss.Packets += len(u.Packets)
		loss.Bytes += int64(u.Bytes)
		if _, err := m.pool.Release(now, id); err != nil {
			break // unreachable: the id came from the live set
		}
	}
	return loss
}

// DropAll implements AllDropper: every parked flow loses its queue and its
// re-request state.
func (m *FlowGranularity) DropAll(now time.Duration) BufferLoss {
	var loss BufferLoss
	states := append([]*flowState(nil), m.order...)
	for _, st := range states {
		if u, ok := m.pool.Peek(st.bufferID); ok {
			loss.Units++
			loss.Packets += len(u.Packets)
			loss.Bytes += int64(u.Bytes)
		}
		_ = m.Drop(now, st.bufferID)
	}
	return loss
}
