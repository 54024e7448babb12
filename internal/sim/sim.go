// Package sim is a deterministic discrete-event simulation kernel. It drives
// the emulated testbed in virtual time: every component (links, switch CPU,
// controller CPU, traffic sources) schedules closures on a shared Kernel,
// and the Kernel executes them in timestamp order with FIFO tie-breaking, so
// a given seed always replays the exact same execution.
//
// The kernel is single-threaded by design: determinism is what lets the
// benchmark harness regenerate the paper's figures reproducibly. Components
// must not retain goroutines; all concurrency is simulated.
//
// Concurrency contract: one Kernel (and everything scheduled on it) must be
// confined to a single goroutine, but independent Kernels share no state —
// not even a package-level RNG — so any number of simulations may run on
// different goroutines at once. The parallel experiment runner relies on
// exactly this: one kernel per sweep cell, many cells in flight.
//
// Hot-path design (DESIGN.md §10): the kernel recycles fired and cancelled
// Event structs through a kernel-local free list (safe precisely because of
// the single-goroutine confinement above), and the pending set is a concrete
// 4-ary min-heap rather than container/heap — no interface boxing, fewer
// cache-missing levels. Steady-state scheduling therefore allocates nothing.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled closure. It is returned by At/After so callers can
// cancel pending work (for example the flow-granularity re-request timer).
//
// Handle validity: an Event handle is only meaningful while the event is
// pending. Once the event fires or is cancelled the kernel recycles the
// struct for a later At/After call, so callers that keep a handle must drop
// it (set it to nil) no later than inside the event's own callback —
// cancelling through a stale handle could cancel an unrelated future event.
// The timer fields in switchd follow exactly this discipline.
type Event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

// Time reports when the event is scheduled to fire. It is only valid while
// the event is pending (see the handle-validity note on Event).
func (e *Event) Time() time.Duration { return e.at }

// eventHeap is a 4-ary min-heap of events ordered by (time, sequence).
// Sequence numbers are unique, so the order is total and every conforming
// heap implementation pops the exact same event sequence — which is what
// keeps the pooled kernel replay-identical to the original container/heap
// version (verified by TestKernelMatchesReferenceOrder).
//
// A 4-ary layout halves the tree depth of a binary heap: sift-down does more
// comparisons per level but against adjacent slice elements (one cache
// line), which wins for the short-lived, high-churn event populations the
// testbed produces.
type eventHeap []*Event

// before reports the strict (time, seq) order; seq uniqueness means equal
// elements never occur.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !before(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = e
	e.index = i
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	top := old[0]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		(*h).siftDown(0)
	}
	top.index = -1
	return top
}

// remove deletes the event at heap index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = i
		hh := *h
		hh.siftDown(i)
		if last.index == i {
			hh.siftUp(i)
		}
	}
	e.index = -1
}

// maxFree bounds the event free list so a transient burst of pending events
// cannot pin its peak memory for the rest of the run. Steady-state churn
// stays far below this.
const maxFree = 4096

// Kernel is the event loop. Create one with New; the zero value is not
// usable because it lacks a seeded RNG.
type Kernel struct {
	now      time.Duration
	events   eventHeap
	seq      uint64
	rng      *rand.Rand
	executed uint64
	free     []*Event // recycled Event structs; kernel-local, no locking
}

// New creates a kernel whose random source is seeded deterministically.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand exposes the kernel's deterministic random source. All simulated
// randomness (jitter, service-time noise) must come from here so runs are
// replayable from the seed.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed reports how many events have run, a cheap progress/debug signal.
func (k *Kernel) Executed() uint64 { return k.executed }

// acquire takes an Event from the free list (or allocates) and stamps it
// with a fresh sequence number.
func (k *Kernel) acquire(t time.Duration, fn func()) *Event {
	k.seq++
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.at, e.seq, e.fn = t, k.seq, fn
		return e
	}
	return &Event{at: t, seq: k.seq, fn: fn}
}

// release returns a fired or cancelled event to the free list.
func (k *Kernel) release(e *Event) {
	e.fn = nil
	if len(k.free) < maxFree {
		k.free = append(k.free, e)
	}
}

// At schedules fn at absolute virtual time t. Scheduling in the past is a
// programming error and panics: silently reordering time would corrupt every
// downstream measurement.
func (k *Kernel) At(t time.Duration, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	e := k.acquire(t, fn)
	k.events.push(e)
	return e
}

// After schedules fn d after the current virtual time. Negative d means now.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false — but note the
// handle-validity contract on Event: a handle kept past its event's firing
// may already designate a recycled, unrelated event.
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	k.events.remove(e.index)
	k.release(e)
	return true
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.at
	fn := e.fn
	k.release(e)
	k.executed++
	fn()
	return true
}

// Run executes events until none remain.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// Drain executes pending events until none remain or the clock has reached
// the deadline. The boundary rule is exactly the testbeds' historical
//
//	for k.Now() < deadline && k.Step() {}
//
// loop, inlined: every event strictly before the deadline runs, plus the
// single earliest event at or past it (popping it advances the clock past
// the deadline, which stops the loop). Events beyond that stay pending and
// the clock is not advanced to the deadline artificially.
// TestKernelDrainMatchesStepLoop pins the equivalence.
func (k *Kernel) Drain(deadline time.Duration) {
	for len(k.events) > 0 && k.now < deadline {
		e := k.events.pop()
		k.now = e.at
		fn := e.fn
		k.release(e)
		k.executed++
		fn()
	}
}
