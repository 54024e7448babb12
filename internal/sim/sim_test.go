package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.At(3*time.Millisecond, func() { order = append(order, 3) })
	k.At(1*time.Millisecond, func() { order = append(order, 1) })
	k.At(2*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", k.Now())
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestKernelAfterAndNestedScheduling(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	k.After(time.Second, func() {
		fired = append(fired, k.Now())
		k.After(time.Second, func() {
			fired = append(fired, k.Now())
		})
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v, want [1s 2s]", fired)
	}
}

func TestKernelNegativeAfterMeansNow(t *testing.T) {
	k := New(1)
	done := false
	k.After(-time.Second, func() { done = true })
	k.Run()
	if !done {
		t.Error("event with negative delay never ran")
	}
	if k.Now() != 0 {
		t.Errorf("Now = %v, want 0", k.Now())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.At(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	k.At(500*time.Millisecond, func() {})
}

func TestKernelCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(time.Second, func() { fired = true })
	if !k.Cancel(e) {
		t.Error("Cancel = false for pending event")
	}
	if k.Cancel(e) {
		t.Error("second Cancel = true")
	}
	if k.Cancel(nil) {
		t.Error("Cancel(nil) = true")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := New(1)
	e := k.After(time.Millisecond, func() {})
	k.Run()
	if k.Cancel(e) {
		t.Error("Cancel after fire = true")
	}
}

func TestKernelCancelMiddleOfHeap(t *testing.T) {
	k := New(1)
	var order []int
	events := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		events[i] = k.At(time.Duration(i+1)*time.Millisecond, func() { order = append(order, i) })
	}
	k.Cancel(events[2])
	k.Run()
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		k := New(42)
		var ts []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			ts = append(ts, k.Now())
			if depth < 6 {
				n := k.Rand().Intn(3) + 1
				for i := 0; i < n; i++ {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					k.After(d, func() { spawn(depth + 1) })
				}
			}
		}
		k.After(0, func() { spawn(0) })
		k.Run()
		return ts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timestamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceSingleServerSerializesJobs(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	var doneAt []time.Duration
	for i := 0; i < 3; i++ {
		r.Submit(10*time.Millisecond, func() { doneAt = append(doneAt, k.Now()) })
	}
	k.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(doneAt) != 3 {
		t.Fatalf("completions = %d, want 3", len(doneAt))
	}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, doneAt[i], want[i])
		}
	}
	if r.Completed() != 3 {
		t.Errorf("Completed = %d, want 3", r.Completed())
	}
}

func TestResourceParallelServers(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 2)
	var doneAt []time.Duration
	for i := 0; i < 4; i++ {
		r.Submit(10*time.Millisecond, func() { doneAt = append(doneAt, k.Now()) })
	}
	k.Run()
	// Two at 10ms, two at 20ms.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, doneAt[i], want[i])
		}
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	r.Submit(time.Second, nil)
	k.At(2*time.Second, func() {}) // hold the clock open to 2s
	k.Run()
	// Busy 1s out of 2s elapsed: 50% of one core.
	if got := r.UtilizationPercent(); got < 49.9 || got > 50.1 {
		t.Errorf("UtilizationPercent = %g, want 50", got)
	}
}

func TestResourceWaitStats(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	r.Submit(10*time.Millisecond, nil) // waits 0
	r.Submit(10*time.Millisecond, nil) // waits 10ms
	k.Run()
	if got := r.WaitStats().Max(); got < 0.0099 || got > 0.0101 {
		t.Errorf("max wait = %gs, want ~0.01", got)
	}
	if got := r.ServiceStats().Mean(); got < 0.0099 || got > 0.0101 {
		t.Errorf("mean service = %gs, want ~0.01", got)
	}
}

func TestResourceZeroServiceJob(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	done := false
	r.Submit(0, func() { done = true })
	k.Run()
	if !done {
		t.Error("zero-service job never completed")
	}
	r.Submit(-time.Second, nil) // clamped, must not panic
	k.Run()
}

func TestResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewResource with 0 servers did not panic")
		}
	}()
	NewResource(New(1), "bad", 0)
}

func TestPropertyResourceConservation(t *testing.T) {
	// Every submitted job completes exactly once, in FIFO order per
	// identical service times, regardless of submission pattern.
	r := rand.New(rand.NewSource(5))
	prop := func() bool {
		k := New(int64(r.Intn(1000)))
		res := NewResource(k, "cpu", 1+r.Intn(3))
		n := 1 + r.Intn(60)
		completed := 0
		for i := 0; i < n; i++ {
			delay := time.Duration(r.Intn(500)) * time.Microsecond
			service := time.Duration(r.Intn(500)) * time.Microsecond
			k.After(delay, func() {
				res.Submit(service, func() { completed++ })
			})
		}
		k.Run()
		return completed == n && res.QueueLen() == 0 && res.InService() == 0 &&
			res.Completed() == int64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKernelClockMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	prop := func() bool {
		k := New(int64(r.Intn(1000)))
		last := time.Duration(-1)
		ok := true
		for i := 0; i < 50; i++ {
			k.After(time.Duration(r.Intn(1000))*time.Microsecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSerialKernelRNGStreamUnchanged pins the kernel's random stream to
// rand.NewSource(seed): every committed experiment CSV depends on it.
func TestSerialKernelRNGStreamUnchanged(t *testing.T) {
	k := New(1)
	ref := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		if got, want := k.Rand().Float64(), ref.Float64(); got != want {
			t.Fatalf("draw %d: kernel stream diverged from rand.NewSource(1): %v != %v", i, got, want)
		}
	}
	// Golden value for Go's source stability (Go 1 compatibility promise).
	if got, want := New(1).Rand().Float64(), 0.6046602879796196; got != want {
		t.Fatalf("first draw for seed 1 = %v, want %v", got, want)
	}
}

// mix is a tiny deterministic hash for building irregular event cascades.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 1
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return z ^ z>>31
}

// TestKernelDrainMatchesStepLoop pins Drain to the manual Step loop it
// replaced: the same events fire before the deadline, and the same ones are
// left for a later Run.
func TestKernelDrainMatchesStepLoop(t *testing.T) {
	build := func(k *Kernel) *[]time.Duration {
		var fired []time.Duration
		var chain func(t time.Duration, depth int) func()
		chain = func(at time.Duration, depth int) func() {
			return func() {
				fired = append(fired, at)
				if depth > 0 {
					k.After(time.Duration(mix(uint64(depth), uint64(at))%1000)*time.Microsecond, chain(k.Now(), depth-1))
				}
			}
		}
		for i := 0; i < 50; i++ {
			at := time.Duration(mix(7, uint64(i))%10000) * time.Microsecond
			k.At(at, chain(at, 10))
		}
		return &fired
	}
	const deadline = 8 * time.Millisecond

	ka := New(1)
	fa := build(ka)
	for ka.Now() < deadline && ka.Step() {
	}
	kb := New(1)
	fb := build(kb)
	kb.Drain(deadline)

	if !reflect.DeepEqual(*fa, *fb) {
		t.Fatal("Drain fired a different event sequence than the manual Step loop")
	}
	if ka.Executed() != kb.Executed() || ka.Now() != kb.Now() {
		t.Fatalf("Drain state (exec %d, now %v) != Step loop (exec %d, now %v)",
			kb.Executed(), kb.Now(), ka.Executed(), ka.Now())
	}
	ka.Run()
	kb.Run()
	if !reflect.DeepEqual(*fa, *fb) || ka.Executed() != kb.Executed() {
		t.Fatal("Drain left a different set of events pending than the manual Step loop")
	}
}
