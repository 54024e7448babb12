package flowtable

import "time"

// The two orders the table needs the minimum of: a rule's expiryInstant
// (NextExpiry, Expire, soonest-expiry eviction) and its lastUsed (LRU
// eviction). The constant doubles as the index into Entry.hpos.
const (
	byDeadline = iota
	byLRU
	numHeaps
)

// heapSlot is one heap element: a rule and the key it was filed under.
type heapSlot struct {
	key time.Duration
	e   *Entry
}

// lazyHeap is a binary min-heap over (key, seq) whose stored keys are lower
// bounds of the rules' real keys. Between insert and removal a rule's
// lastUsed only moves forward, so both orders' real keys only grow; Lookup
// therefore never touches the heap, and min repairs the one place where a
// stale key matters — the top — before answering. The answer is exact: once
// the top's stored key equals its real key, every other rule's real key is
// at least its stored key, which the heap order puts at or after the top,
// ties by seq included.
//
// slots is 1-based (slots[0] is unused) and allocated on first push, sized
// once for a bounded table.
type lazyHeap struct {
	kind  int
	slots []heapSlot
}

func (h *lazyHeap) realKey(e *Entry) time.Duration {
	if h.kind == byLRU {
		return e.lastUsed
	}
	at, _ := expiryInstant(e)
	return at
}

func (h *lazyHeap) less(i, j int) bool {
	a, b := &h.slots[i], &h.slots[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.e.seq < b.e.seq
}

func (h *lazyHeap) swap(i, j int) {
	h.slots[i], h.slots[j] = h.slots[j], h.slots[i]
	h.slots[i].e.hpos[h.kind] = int32(i)
	h.slots[j].e.hpos[h.kind] = int32(j)
}

func (h *lazyHeap) up(i int) {
	for i > 1 && h.less(i, i/2) {
		h.swap(i, i/2)
		i /= 2
	}
}

// down sifts slot i towards the leaves and reports whether it moved.
func (h *lazyHeap) down(i int) bool {
	start, n := i, len(h.slots)
	for {
		c := 2 * i
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i != start
}

// push files e under its current key. sizeHint is the table's capacity
// (Unlimited = grow on demand).
func (h *lazyHeap) push(e *Entry, sizeHint int) {
	if h.slots == nil {
		h.slots = make([]heapSlot, 1, 1+sizeHint)
	}
	h.slots = append(h.slots, heapSlot{key: h.realKey(e), e: e})
	i := len(h.slots) - 1
	e.hpos[h.kind] = int32(i)
	h.up(i)
}

// remove takes e out of the heap if it is in it.
func (h *lazyHeap) remove(e *Entry) {
	i := int(e.hpos[h.kind])
	if i == 0 {
		return
	}
	e.hpos[h.kind] = 0
	last := len(h.slots) - 1
	if i != last {
		h.slots[i] = h.slots[last]
		h.slots[i].e.hpos[h.kind] = int32(i)
	}
	h.slots[last] = heapSlot{}
	h.slots = h.slots[:last]
	if i != last && !h.down(i) {
		h.up(i)
	}
}

// min returns the rule with the smallest real (key, seq) and that key, or
// nil when the heap is empty. A top filed under a key its rule has since
// outgrown is refiled and the search repeats; each Lookup hit makes at most
// one such repair necessary, so the cost is amortised O(log n) per hit and
// paid only by the operations that ask.
func (h *lazyHeap) min() (*Entry, time.Duration) {
	for len(h.slots) > 1 {
		top := &h.slots[1]
		k := h.realKey(top.e)
		if k == top.key {
			return top.e, k
		}
		top.key = k
		h.down(1)
	}
	return nil, 0
}

// mayBeDue reports whether some rule's key could be at or before now. False
// is definite (stored keys are lower bounds); true needs min to confirm.
func (h *lazyHeap) mayBeDue(now time.Duration) bool {
	return len(h.slots) > 1 && h.slots[1].key <= now
}
