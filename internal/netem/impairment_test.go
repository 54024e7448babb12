package netem

import (
	"testing"
	"time"

	"sdnbuffer/internal/sim"
)

func TestImpairmentValidate(t *testing.T) {
	bad := []Impairment{
		{LossRate: -0.1},
		{LossRate: 1},
		{ReorderProb: 0.5}, // no reorder delay
		{ReorderProb: 0.5, ReorderDelay: -time.Millisecond},
		{DuplicateProb: 0.5, DuplicateDelay: -time.Millisecond},
		{JitterMax: -time.Millisecond},
		{QueueCapBytes: -1},
		{Outages: []Window{{Start: 5, End: 5}}},
		{Outages: []Window{{Start: -1, End: 5}}},
		{Gilbert: &GilbertElliott{PGoodBad: 1.5}},
	}
	for i, imp := range bad {
		imp := imp
		if err := imp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, imp)
		}
	}
	good := Impairment{
		LossRate: 0.1, ReorderProb: 0.1, ReorderDelay: time.Millisecond,
		DuplicateProb: 0.1, DuplicateDelay: time.Millisecond,
		JitterMax: time.Millisecond, QueueCapBytes: 1000,
		Outages: []Window{{Start: time.Second, End: 2 * time.Second}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid impairment: %v", err)
	}
}

func TestGilbertElliottMeanLossRate(t *testing.T) {
	g := GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, LossBad: 0.5}
	// Stationary P(bad) = 0.1/0.5 = 0.2; mean loss = 0.2·0.5 = 0.1.
	if got := g.MeanLossRate(); got < 0.0999 || got > 0.1001 {
		t.Errorf("MeanLossRate = %g, want 0.1", got)
	}
}

// TestGilbertElliottBursty checks the two-state model produces loss runs:
// with a sticky bad state and LossBad=1, consecutive drops must appear far
// more often than an i.i.d. model at the same mean rate would produce.
func TestGilbertElliottBursty(t *testing.T) {
	k := sim.New(7)
	l := mustLink(t, k, 100, 0)
	if err := l.SetImpairment(Impairment{Gilbert: &GilbertElliott{
		PGoodBad: 0.02, PBadGood: 0.2, LossBad: 1,
	}}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	const n = 5000
	delivered := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		l.Send(make([]byte, 100), func() { delivered[i] = true })
	}
	k.Run()
	losses, runs := 0, 0
	for i := 0; i < n; i++ {
		if !delivered[i] {
			losses++
			if i == 0 || delivered[i-1] {
				runs++
			}
		}
	}
	if losses == 0 {
		t.Fatal("no losses observed")
	}
	meanRun := float64(losses) / float64(runs)
	// Expected burst length 1/PBadGood = 5; i.i.d. at ~9% loss would give
	// mean runs of ~1.1.
	if meanRun < 2 {
		t.Errorf("mean loss run = %.2f (losses=%d runs=%d), want bursty (>= 2)", meanRun, losses, runs)
	}
	mean := float64(losses) / float64(n)
	if mean < 0.04 || mean > 0.16 {
		t.Errorf("observed loss rate %.3f far from stationary 0.091", mean)
	}
}

func TestOutageWindowDropsEverything(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	if err := l.SetImpairment(Impairment{
		Outages: []Window{{Start: 10 * time.Millisecond, End: 20 * time.Millisecond}},
	}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	var deliveredAt []time.Duration
	for _, at := range []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond} {
		at := at
		k.At(at, func() {
			l.Send(make([]byte, 100), func() { deliveredAt = append(deliveredAt, at) })
		})
	}
	k.Run()
	if len(deliveredAt) != 2 || deliveredAt[0] != 5*time.Millisecond || deliveredAt[1] != 25*time.Millisecond {
		t.Errorf("delivered sends = %v, want [5ms 25ms]", deliveredAt)
	}
	f := l.Faults()
	if f.OutageDropped != 1 {
		t.Errorf("OutageDropped = %d, want 1", f.OutageDropped)
	}
	if c, _ := l.Dropped(); c != 1 {
		t.Errorf("Dropped = %d, want 1", c)
	}
}

// TestOutageWindowsDropExactlyInWindowSends drives a duplex pair whose
// forward direction carries two outage windows: one payload per millisecond
// goes out, and every delivery is echoed back. Exactly the payloads
// enqueued inside a window vanish with an OutageDropped count; everything
// else arrives no earlier than send time plus propagation and is echoed.
func TestOutageWindowsDropExactlyInWindowSends(t *testing.T) {
	const prop = time.Millisecond
	k := sim.New(42)
	fwd := mustLink(t, k, 100, prop)
	back := mustLink(t, k, 100, prop)
	if err := fwd.SetImpairment(Impairment{Outages: []Window{
		{Start: 3 * time.Millisecond, End: 6 * time.Millisecond},
		{Start: 11 * time.Millisecond, End: 13 * time.Millisecond},
	}}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	delivered := make(map[int]time.Duration)
	echoed := make(map[int]bool)
	const n = 20
	for i := 0; i < n; i++ {
		i := i
		payload := make([]byte, 200+i)
		k.At(time.Duration(i)*time.Millisecond, func() {
			fwd.Send(payload, func() {
				delivered[i] = k.Now()
				back.Send(payload, func() { echoed[i] = true })
			})
		})
	}
	k.Run()

	// Sends at 3,4,5 ms and 11,12 ms enqueue inside the windows.
	wantDropped := map[int]bool{3: true, 4: true, 5: true, 11: true, 12: true}
	if got := int(fwd.Faults().OutageDropped); got != len(wantDropped) {
		t.Fatalf("OutageDropped = %d, want %d", got, len(wantDropped))
	}
	if f := back.Faults(); f.OutageDropped != 0 {
		t.Errorf("unimpaired echo link dropped %d", f.OutageDropped)
	}
	for i := 0; i < n; i++ {
		at, ok := delivered[i]
		if wantDropped[i] == ok {
			t.Errorf("payload %d: delivered=%v, in-window=%v", i, ok, wantDropped[i])
		}
		if echoed[i] != ok {
			t.Errorf("payload %d: delivered=%v but echoed=%v", i, ok, echoed[i])
		}
		if min := time.Duration(i)*time.Millisecond + prop; ok && at < min {
			t.Errorf("payload %d delivered at %v, before %v", i, at, min)
		}
	}
}

func TestQueueCapDropTail(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0) // 1000 bytes serialize in 80µs
	if err := l.SetImpairment(Impairment{QueueCapBytes: 2500}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	delivered := 0
	for i := 0; i < 5; i++ {
		l.Send(make([]byte, 1000), func() { delivered++ })
	}
	k.Run()
	// First fills the serializer (backlog 1000), second queues (2000), third
	// would reach 3000 > 2500 and is tail-dropped, as are the rest.
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	f := l.Faults()
	if f.TailDropped != 3 {
		t.Errorf("TailDropped = %d, want 3", f.TailDropped)
	}
	if c, _ := l.Dropped(); c != 3 {
		t.Errorf("Dropped = %d, want 3", c)
	}
	// The backlog drains: later sends go through again.
	k.At(k.Now()+time.Millisecond, func() {
		l.Send(make([]byte, 1000), func() { delivered++ })
	})
	k.Run()
	if delivered != 3 {
		t.Errorf("post-drain delivered = %d, want 3", delivered)
	}
}

func TestQueueCapZeroKeepsUnbounded(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	delivered := 0
	for i := 0; i < 100; i++ {
		l.Send(make([]byte, 1000), func() { delivered++ })
	}
	k.Run()
	if delivered != 100 {
		t.Errorf("delivered = %d, want 100 with unbounded queue", delivered)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	if err := l.SetImpairment(Impairment{DuplicateProb: 0.999999, DuplicateDelay: time.Millisecond}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	deliveries := 0
	l.Send(make([]byte, 100), func() { deliveries++ })
	k.Run()
	if deliveries != 2 {
		t.Errorf("deliveries = %d, want 2", deliveries)
	}
	if f := l.Faults(); f.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", f.Duplicated)
	}
}

func TestReorderDelaysBehindLaterTraffic(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	if err := l.SetImpairment(Impairment{ReorderProb: 0.999999, ReorderDelay: 10 * time.Millisecond}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	var order []int
	l.Send(make([]byte, 100), func() { order = append(order, 0) })
	if err := l.SetImpairment(Impairment{}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	l.Send(make([]byte, 100), func() { order = append(order, 1) })
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("delivery order = %v, want [1 0]", order)
	}
}

// TestZeroImpairmentPreservesRNGSequence is the byte-identity guarantee: a
// link with a zero-valued impairment must consume exactly the same kernel
// RNG draws as a link that was never configured, so pre-existing experiment
// CSVs do not shift.
func TestZeroImpairmentPreservesRNGSequence(t *testing.T) {
	run := func(configure bool) []float64 {
		k := sim.New(42)
		l := mustLink(t, k, 100, 0)
		if err := l.SetLossRate(0.3); err != nil {
			t.Fatalf("SetLossRate: %v", err)
		}
		if configure {
			if err := l.SetImpairment(Impairment{}); err != nil {
				t.Fatalf("SetImpairment: %v", err)
			}
		}
		for i := 0; i < 50; i++ {
			l.Send(make([]byte, 100), nil)
		}
		k.Run()
		tail := make([]float64, 8)
		for i := range tail {
			tail[i] = k.Rand().Float64()
		}
		return tail
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RNG sequence diverged at draw %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestImpairmentLossOverridesLegacyKnob pins the merge rule documented on
// SetImpairment.
func TestImpairmentLossOverridesLegacyKnob(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	if err := l.SetLossRate(0.5); err != nil {
		t.Fatalf("SetLossRate: %v", err)
	}
	if err := l.SetImpairment(Impairment{JitterMax: time.Millisecond}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	if l.lossRate != 0.5 {
		t.Errorf("zero-loss impairment clobbered legacy loss rate: %g", l.lossRate)
	}
	if err := l.SetImpairment(Impairment{LossRate: 0.2}); err != nil {
		t.Fatalf("SetImpairment: %v", err)
	}
	if l.lossRate != 0.2 {
		t.Errorf("impairment loss did not override: %g", l.lossRate)
	}
}

func TestSeededImpairmentScheduleReplays(t *testing.T) {
	run := func() []bool {
		k := sim.New(99)
		l := mustLink(t, k, 100, 0)
		if err := l.SetImpairment(Impairment{
			Gilbert:       &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.8},
			ReorderProb:   0.05,
			ReorderDelay:  time.Millisecond,
			DuplicateProb: 0.02,
			JitterMax:     100 * time.Microsecond,
		}); err != nil {
			t.Fatalf("SetImpairment: %v", err)
		}
		delivered := make([]bool, 500)
		for i := 0; i < 500; i++ {
			i := i
			l.Send(make([]byte, 200), func() { delivered[i] = true })
		}
		k.Run()
		return delivered
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("impairment schedule not reproducible at payload %d", i)
		}
	}
}
