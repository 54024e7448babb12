package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sdnbuffer/internal/sim"
)

func mustLink(t *testing.T, k *sim.Kernel, mbps float64, prop time.Duration) *Link {
	t.Helper()
	l, err := NewLink(k, "test", mbps, prop)
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	return l
}

func TestTransmissionTime(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0) // 100 Mbps
	// 1000 bytes = 8000 bits at 100 Mbps = 80 µs.
	if got := l.TransmissionTime(1000); got != 80*time.Microsecond {
		t.Errorf("TransmissionTime = %v, want 80µs", got)
	}
}

func TestSendDeliversAfterTxAndPropagation(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 100*time.Microsecond)
	var deliveredAt time.Duration
	l.Send(make([]byte, 1000), func() { deliveredAt = k.Now() })
	k.Run()
	want := 80*time.Microsecond + 100*time.Microsecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestSendFIFOQueueing(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	var order []int
	var times []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		l.Send(make([]byte, 1000), func() {
			order = append(order, i)
			times = append(times, k.Now())
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order = %v", order)
		}
	}
	// Back-to-back 80µs serializations.
	for i, want := range []time.Duration{80, 160, 240} {
		if times[i] != want*time.Microsecond {
			t.Errorf("payload %d delivered at %v, want %dµs", i, times[i], want)
		}
	}
	if got := l.QueueingDelay().Max(); got < 0.000159 || got > 0.000161 {
		t.Errorf("max queueing delay = %gs, want ~160µs", got)
	}
}

func TestSendNilDeliver(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	l.Send(make([]byte, 100), nil)
	k.Run() // must not panic
	count, bytes := l.Traffic()
	if count != 1 || bytes != 100 {
		t.Errorf("traffic = %d/%d", count, bytes)
	}
}

func TestTapsObserveAllPayloads(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	var seen int
	var seenBytes int
	l.AddTap(func(_ time.Duration, p []byte) { seen++; seenBytes += len(p) })
	l.AddTap(func(_ time.Duration, p []byte) { seen++ })
	l.Send(make([]byte, 10), nil)
	l.Send(make([]byte, 20), nil)
	k.Run()
	if seen != 4 || seenBytes != 30 {
		t.Errorf("taps saw %d events / %d bytes, want 4/30", seen, seenBytes)
	}
}

func TestUtilizationPercent(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	// 12.5 MB over 1s at 100 Mbps = 100% utilization.
	l.Send(make([]byte, 12_500_000), nil)
	k.Run()
	got := l.UtilizationPercent(time.Second)
	if got < 99.9 || got > 100.1 {
		t.Errorf("UtilizationPercent = %g, want 100", got)
	}
	if l.UtilizationPercent(0) != 0 {
		t.Error("UtilizationPercent(0) != 0")
	}
}

func TestMeanInFlight(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	l.Send(make([]byte, 1000), nil) // 80µs in flight
	k.Run()
	got := l.MeanInFlight(160 * time.Microsecond)
	if got < 0.49 || got > 0.51 {
		t.Errorf("MeanInFlight = %g, want 0.5", got)
	}
}

func TestNewLinkValidation(t *testing.T) {
	k := sim.New(1)
	if _, err := NewLink(k, "bad", 0, 0); err == nil {
		t.Error("NewLink(0 Mbps) succeeded")
	}
	if _, err := NewLink(k, "bad", -1, 0); err == nil {
		t.Error("NewLink(-1 Mbps) succeeded")
	}
	if _, err := NewLink(k, "bad", 10, -time.Second); err == nil {
		t.Error("NewLink negative propagation succeeded")
	}
}

func TestDuplex(t *testing.T) {
	k := sim.New(1)
	d, err := NewDuplex(k, "cable", 100, time.Microsecond)
	if err != nil {
		t.Fatalf("NewDuplex: %v", err)
	}
	var aToB, bToA bool
	d.AtoB.Send(make([]byte, 10), func() { aToB = true })
	d.BtoA.Send(make([]byte, 10), func() { bToA = true })
	k.Run()
	if !aToB || !bToA {
		t.Error("duplex directions not independent")
	}
	if _, err := NewDuplex(k, "bad", 0, 0); err == nil {
		t.Error("NewDuplex(0 Mbps) succeeded")
	}
}

func TestPropertyDeliveryOrderAndConservation(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	prop := func() bool {
		k := sim.New(1)
		l, err := NewLink(k, "p", 1+r.Float64()*999, time.Duration(r.Intn(1000))*time.Microsecond)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(50)
		var delivered []int
		sentBytes := int64(0)
		for i := 0; i < n; i++ {
			i := i
			size := 1 + r.Intn(1500)
			sentBytes += int64(size)
			delay := time.Duration(r.Intn(1000)) * time.Microsecond
			k.After(delay, func() {
				l.Send(make([]byte, size), func() { delivered = append(delivered, i) })
			})
		}
		k.Run()
		if len(delivered) != n {
			return false
		}
		_, gotBytes := l.Traffic()
		return gotBytes == sentBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFIFOWhenSentTogether(t *testing.T) {
	// Payloads enqueued at the same instant deliver in enqueue order.
	r := rand.New(rand.NewSource(52))
	prop := func() bool {
		k := sim.New(1)
		l, err := NewLink(k, "p", 10, 0)
		if err != nil {
			return false
		}
		n := 2 + r.Intn(20)
		var delivered []int
		for i := 0; i < n; i++ {
			i := i
			l.Send(make([]byte, 1+r.Intn(500)), func() { delivered = append(delivered, i) })
		}
		k.Run()
		for i, v := range delivered {
			if v != i {
				return false
			}
		}
		return len(delivered) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLossRateDropsDeliveries(t *testing.T) {
	k := sim.New(42)
	l := mustLink(t, k, 100, 0)
	if err := l.SetLossRate(0.5); err != nil {
		t.Fatalf("SetLossRate: %v", err)
	}
	delivered := 0
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 100), func() { delivered++ })
	}
	k.Run()
	dropCount, dropBytes := l.Dropped()
	if delivered+int(dropCount) != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropCount, n)
	}
	if dropBytes != dropCount*100 {
		t.Errorf("dropped bytes = %d, want %d", dropBytes, dropCount*100)
	}
	// With p=0.5 over 1000 trials, the count is within a loose band.
	if dropCount < 400 || dropCount > 600 {
		t.Errorf("dropped = %d, want ~500", dropCount)
	}
	// Taps and traffic accounting still observe dropped payloads.
	if count, _ := l.Traffic(); count != n {
		t.Errorf("traffic count = %d, want %d", count, n)
	}
}

func TestLossRateValidation(t *testing.T) {
	k := sim.New(1)
	l := mustLink(t, k, 100, 0)
	if err := l.SetLossRate(-0.1); err == nil {
		t.Error("accepted negative loss rate")
	}
	if err := l.SetLossRate(1.0); err == nil {
		t.Error("accepted loss rate 1.0")
	}
	if err := l.SetLossRate(0); err != nil {
		t.Errorf("rejected zero loss rate: %v", err)
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func() int64 {
		k := sim.New(7)
		l := mustLink(t, k, 100, 0)
		if err := l.SetLossRate(0.3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			l.Send(make([]byte, 10), nil)
		}
		k.Run()
		n, _ := l.Dropped()
		return n
	}
	if a, b := run(), run(); a != b {
		t.Errorf("loss differs across identical seeds: %d vs %d", a, b)
	}
}
