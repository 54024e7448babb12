package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"sdnbuffer/internal/openflow"
)

func mustPool(t *testing.T, capacity int, expiry time.Duration) *Pool {
	t.Helper()
	p, err := NewPool(capacity, expiry)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestPoolStoreRelease(t *testing.T) {
	p := mustPool(t, 4, 0)
	u, err := p.Store(0, 1, []byte("pkt"))
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	if u.ID == openflow.NoBuffer {
		t.Error("allocated the NoBuffer sentinel")
	}
	if p.InUse(0) != 1 || p.Free(0) != 3 {
		t.Errorf("InUse/Free = %d/%d, want 1/3", p.InUse(0), p.Free(0))
	}
	got, err := p.Release(time.Millisecond, u.ID)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if len(got.Packets) != 1 || string(got.Packets[0].Data) != "pkt" ||
		got.Packets[0].InPort != 1 || got.Packets[0].BufferedAt != 0 {
		t.Errorf("released unit = %+v", got)
	}
	if p.InUse(time.Millisecond) != 0 {
		t.Errorf("InUse = %d after release", p.InUse(time.Millisecond))
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := mustPool(t, 2, 0)
	for i := 0; i < 2; i++ {
		if _, err := p.Store(0, 1, testData(i, 1000)); err != nil {
			t.Fatalf("Store %d: %v", i, err)
		}
	}
	if _, err := p.Store(0, 1, testData(2, 600)); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("Store into full pool: %v, want ErrPoolExhausted", err)
	}
	_, _, _, rejected := p.Counters()
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	if p.RejectedBytes() != 600 || p.BytesInUse() != 2000 || p.BytesHighWater() != 2000 {
		t.Errorf("RejectedBytes/BytesInUse/BytesHighWater = %d/%d/%d, want 600/2000/2000",
			p.RejectedBytes(), p.BytesInUse(), p.BytesHighWater())
	}
}

func TestPoolUnknownRelease(t *testing.T) {
	p := mustPool(t, 2, 0)
	if _, err := p.Release(0, 99); !errors.Is(err, ErrUnknownBufferID) {
		t.Errorf("Release(99): %v, want ErrUnknownBufferID", err)
	}
}

func TestPoolStoreAsRejectsDuplicateAndSentinel(t *testing.T) {
	p := mustPool(t, 4, 0)
	if _, err := p.StoreAs(0, 7, 1, nil); err != nil {
		t.Fatalf("StoreAs: %v", err)
	}
	if _, err := p.StoreAs(0, 7, 1, nil); err == nil {
		t.Error("StoreAs accepted duplicate id")
	}
	if _, err := p.StoreAs(0, openflow.NoBuffer, 1, nil); err == nil {
		t.Error("StoreAs accepted NoBuffer sentinel")
	}
}

func TestPoolIDsNeverCollideWhileHeld(t *testing.T) {
	p := mustPool(t, 100, 0)
	seen := make(map[uint32]bool)
	for i := 0; i < 100; i++ {
		u, err := p.Store(0, 1, nil)
		if err != nil {
			t.Fatalf("Store %d: %v", i, err)
		}
		if seen[u.ID] {
			t.Fatalf("duplicate live id %d", u.ID)
		}
		seen[u.ID] = true
	}
}

func TestPoolExpire(t *testing.T) {
	p := mustPool(t, 4, 10*time.Millisecond)
	u1, err := p.Store(0, 1, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = p.Store(5*time.Millisecond, 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	dropped := p.Expire(12 * time.Millisecond)
	if len(dropped) != 1 || dropped[0].ID != u1.ID {
		t.Fatalf("Expire dropped %d units", len(dropped))
	}
	if p.InUse(12*time.Millisecond) != 1 {
		t.Errorf("InUse = %d, want 1", p.InUse(12*time.Millisecond))
	}
	_, _, expired, _ := p.Counters()
	if expired != 1 {
		t.Errorf("expired = %d, want 1", expired)
	}
}

// TestPoolExpireBoundary pins the expiry instant: a unit lives for exactly
// the pool's expiry, so it survives one nanosecond before that age and is
// dropped at it.
func TestPoolExpireBoundary(t *testing.T) {
	const created, expiry = 3 * time.Millisecond, 10 * time.Millisecond
	p := mustPool(t, 4, expiry)
	u, err := p.Store(created, 1, []byte("pkt"))
	if err != nil {
		t.Fatal(err)
	}
	if dropped := p.Expire(created + expiry - time.Nanosecond); len(dropped) != 0 {
		t.Fatalf("Expire one ns early dropped %d units", len(dropped))
	}
	dropped := p.Expire(created + expiry)
	if len(dropped) != 1 || dropped[0].ID != u.ID {
		t.Fatalf("Expire at the boundary dropped %d units, want the stored one", len(dropped))
	}
	if p.Live() != 0 {
		t.Errorf("Live = %d after expiry, want 0", p.Live())
	}
}

func TestPoolExpireDisabled(t *testing.T) {
	p := mustPool(t, 2, 0)
	if _, err := p.Store(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if dropped := p.Expire(time.Hour); dropped != nil {
		t.Errorf("Expire with expiry disabled dropped %d units", len(dropped))
	}
}

func TestPoolDiscardExpired(t *testing.T) {
	p := mustPool(t, 2, 0)
	u, err := p.Store(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DiscardExpired(time.Millisecond, u.ID); err != nil {
		t.Fatalf("DiscardExpired: %v", err)
	}
	if _, err := p.DiscardExpired(time.Millisecond, u.ID); !errors.Is(err, ErrUnknownBufferID) {
		t.Errorf("second DiscardExpired: %v", err)
	}
	_, released, expired, _ := p.Counters()
	if released != 0 || expired != 1 {
		t.Errorf("released/expired = %d/%d, want 0/1", released, expired)
	}
}

func TestPoolOccupancyAccounting(t *testing.T) {
	p := mustPool(t, 4, 0)
	u1, err := p.Store(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = p.Store(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(time.Second, u1.ID); err != nil {
		t.Fatal(err)
	}
	// 2 units for 1s, then 1 unit for 1s → mean 1.5, max 2.
	mean := p.OccupancyMean(2 * time.Second)
	if mean < 1.49 || mean > 1.51 {
		t.Errorf("OccupancyMean = %g, want 1.5", mean)
	}
	if p.OccupancyMax() != 2 {
		t.Errorf("OccupancyMax = %g, want 2", p.OccupancyMax())
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 0); err == nil {
		t.Error("NewPool(0) succeeded")
	}
	if _, err := NewPool(-1, 0); err == nil {
		t.Error("NewPool(-1) succeeded")
	}
	if _, err := NewPool(4, -time.Second); err == nil {
		t.Error("NewPool with negative expiry succeeded")
	}
}

func TestPropertyPoolConservation(t *testing.T) {
	// stored == released + expired + in-use at every point, and occupancy
	// never exceeds capacity.
	r := rand.New(rand.NewSource(31))
	prop := func() bool {
		capacity := 1 + r.Intn(16)
		p, err := NewPool(capacity, 0)
		if err != nil {
			return false
		}
		live := make([]uint32, 0, capacity)
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Duration(r.Intn(100)) * time.Microsecond
			if r.Intn(2) == 0 {
				u, err := p.Store(now, 1, nil)
				if err == nil {
					live = append(live, u.ID)
				} else if !errors.Is(err, ErrPoolExhausted) {
					return false
				}
			} else if len(live) > 0 {
				idx := r.Intn(len(live))
				if _, err := p.Release(now, live[idx]); err != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
			}
			stored, released, expired, _ := p.Counters()
			if stored != released+expired+uint64(p.InUse(now)) {
				return false
			}
			if p.InUse(now) > capacity || p.InUse(now) != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPoolLazyReclamation(t *testing.T) {
	p := mustPool(t, 2, 0)
	p.SetReclaimDelay(10 * time.Millisecond)
	if p.ReclaimDelay() != 10*time.Millisecond {
		t.Fatalf("ReclaimDelay = %v", p.ReclaimDelay())
	}
	u, err := p.Store(0, 1, testData(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(time.Millisecond, u.ID); err != nil {
		t.Fatal(err)
	}
	// The slot stays occupied during the reclamation window; the bytes are
	// freed at once, since reclamation models the slot, not the memory.
	if got := p.InUse(5 * time.Millisecond); got != 1 {
		t.Errorf("InUse during reclaim = %d, want 1", got)
	}
	if p.BytesInUse() != 0 || p.BytesHighWater() != 1000 {
		t.Errorf("BytesInUse/BytesHighWater during reclaim = %d/%d, want 0/1000", p.BytesInUse(), p.BytesHighWater())
	}
	if p.Live() != 0 {
		t.Errorf("Live during reclaim = %d, want 0", p.Live())
	}
	// After the window it frees.
	if got := p.InUse(11 * time.Millisecond); got != 0 {
		t.Errorf("InUse after reclaim = %d, want 0", got)
	}
}

func TestPoolReclaimDelaysExhaustion(t *testing.T) {
	p := mustPool(t, 1, 0)
	p.SetReclaimDelay(10 * time.Millisecond)
	u, err := p.Store(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(time.Millisecond, u.ID); err != nil {
		t.Fatal(err)
	}
	// Slot not yet reclaimed: the pool is still exhausted.
	if _, err := p.Store(5*time.Millisecond, 1, nil); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("Store during reclaim: %v, want ErrPoolExhausted", err)
	}
	if _, err := p.Store(12*time.Millisecond, 1, nil); err != nil {
		t.Errorf("Store after reclaim: %v", err)
	}
}

func TestPoolNegativeReclaimClamped(t *testing.T) {
	p := mustPool(t, 1, 0)
	p.SetReclaimDelay(-time.Second)
	if p.ReclaimDelay() != 0 {
		t.Errorf("negative reclaim delay not clamped: %v", p.ReclaimDelay())
	}
}

func TestPoolAppend(t *testing.T) {
	p := mustPool(t, 2, 0)
	u, err := p.Store(0, 1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(time.Millisecond, u.ID, 1, []byte("b")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := p.Append(time.Millisecond, 9999, 1, []byte("x")); !errors.Is(err, ErrUnknownBufferID) {
		t.Errorf("Append to unknown id: %v", err)
	}
	// Appending consumes no extra unit.
	if p.InUse(time.Millisecond) != 1 {
		t.Errorf("InUse = %d, want 1", p.InUse(time.Millisecond))
	}
	got, err := p.Release(2*time.Millisecond, u.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != 2 || string(got.Packets[0].Data) != "a" || string(got.Packets[1].Data) != "b" {
		t.Errorf("released packets = %+v", got.Packets)
	}
	stored, released, _, _ := p.Counters()
	if stored != 2 || released != 2 {
		t.Errorf("stored/released = %d/%d, want 2/2", stored, released)
	}
}

// TestPoolOrderBounded is a regression test for unbounded growth of the
// insertion-order list: with expiry disabled, Expire never runs its
// compaction, so before remove() compacted too, a long no-expiry run leaked
// one order entry per released unit.
func TestPoolOrderBounded(t *testing.T) {
	p, err := NewPool(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 10000; i++ {
		now += time.Microsecond
		u, err := p.Store(now, 1, []byte("x"))
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		if _, err := p.Release(now, u.ID); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if bound := 2*len(p.units) + 16; len(p.order) > bound {
		t.Errorf("order list grew to %d entries after 10000 store/release cycles, want <= %d", len(p.order), bound)
	}
	// The pool must still function and account correctly after compaction.
	u, err := p.Store(now+time.Microsecond, 1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Live() != 1 || u == nil {
		t.Errorf("live = %d after post-compaction store", p.Live())
	}
}

// TestPoolByteAccountingProperty drives randomized Store/Append/Release/
// Expire interleavings and checks after every operation that the pool's
// byte counter equals the sum over live units and drains to exactly zero
// with the units.
func TestPoolByteAccountingProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := mustPool(t, 24, 50*time.Millisecond)
		p.SetReclaimDelay(5 * time.Millisecond)

		liveIDs := func() []uint32 {
			ids := make([]uint32, 0, len(p.units))
			for id := range p.units {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids
		}
		check := func(op string) {
			t.Helper()
			var sum int64
			for _, u := range p.units {
				sum += int64(u.Bytes)
			}
			if p.BytesInUse() != sum {
				t.Fatalf("seed %d after %s: BytesInUse = %d, live units sum %d", seed, op, p.BytesInUse(), sum)
			}
		}

		now := time.Duration(0)
		for i := 0; i < 2000; i++ {
			now += time.Duration(rng.Intn(2000)) * time.Microsecond
			switch rng.Intn(5) {
			case 0, 1:
				_, _ = p.Store(now, 1, testData(i, 200+rng.Intn(1200)))
				check("store")
			case 2:
				if ids := liveIDs(); len(ids) > 0 {
					_ = p.Append(now, ids[rng.Intn(len(ids))], 1, testData(i, 100+rng.Intn(500)))
					check("append")
				}
			case 3:
				if ids := liveIDs(); len(ids) > 0 {
					_, _ = p.Release(now, ids[rng.Intn(len(ids))])
					check("release")
				}
			case 4:
				p.Expire(now)
				check("expire")
			}
		}
		// Drain: everything left expires.
		now += time.Hour
		p.Expire(now)
		if p.Live() != 0 {
			t.Fatalf("seed %d: %d units leaked after drain", seed, p.Live())
		}
		if p.BytesInUse() != 0 {
			t.Fatalf("seed %d: %d bytes leaked after drain", seed, p.BytesInUse())
		}
	}
}
