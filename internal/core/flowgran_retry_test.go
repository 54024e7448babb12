package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
)

func TestRetryPolicyValidation(t *testing.T) {
	m, err := NewFlowGranularity(16, 128, 50*time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRetryPolicy(RetryPolicy{MaxRerequests: -1}); err == nil {
		t.Error("accepted negative re-request cap")
	}
	if err := m.SetRetryPolicy(RetryPolicy{BackoffPct: -1}); err == nil {
		t.Error("accepted negative backoff")
	}
	if err := m.SetRetryPolicy(RetryPolicy{MaxRerequests: 3, BackoffPct: 100}); err != nil {
		t.Errorf("rejected valid policy: %v", err)
	}
	if got := m.RetryPolicy(); got.MaxRerequests != 3 || got.BackoffPct != 100 {
		t.Errorf("RetryPolicy = %+v", got)
	}
}

// TestRerequestBackoffGrowsWait pins the exponential schedule: with a 100%
// backoff each successive re-request wait doubles (50, 100, 200 ms...).
func TestRerequestBackoffGrowsWait(t *testing.T) {
	m, err := NewFlowGranularity(16, 128, 50*time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRetryPolicy(RetryPolicy{BackoffPct: 100}); err != nil {
		t.Fatal(err)
	}
	m.HandleMiss(0, 1, testData(0, 100), testKey(1))

	now := time.Duration(0)
	wantWaits := []time.Duration{50, 100, 200, 400} // ms
	for i, w := range wantWaits {
		next, ok := m.NextDeadline()
		if !ok {
			t.Fatalf("attempt %d: no deadline", i)
		}
		if got := next - now; got != w*time.Millisecond {
			t.Fatalf("attempt %d: wait = %v, want %v", i, got, w*time.Millisecond)
		}
		now = next
		if out := m.Tick(now); len(out) != 1 {
			t.Fatalf("attempt %d: Tick emitted %d packet_ins, want 1 re-request", i, len(out))
		}
	}
	if st := m.Stats(now); st.Rerequests != uint64(len(wantWaits)) {
		t.Errorf("Rerequests = %d, want %d", st.Rerequests, len(wantWaits))
	}
}

// TestGiveUpDrainsQueueWithoutLeak is the buffer-ownership rule on give-up:
// after MaxRerequests unanswered re-sends the flow's unit is released (pool
// returns to empty — no leak), the queued packets come back as full-payload
// no-buffer packet_ins in arrival order, and the counters attribute them as
// fallbacks plus one giveup.
func TestGiveUpDrainsQueueWithoutLeak(t *testing.T) {
	m, err := NewFlowGranularity(16, 128, 50*time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRetryPolicy(RetryPolicy{MaxRerequests: 2}); err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	m.HandleMiss(0, 1, testData(0, 600), key)
	m.HandleMiss(time.Millisecond, 1, testData(1, 600), key)
	m.HandleMiss(2*time.Millisecond, 1, testData(2, 600), key)

	now := time.Duration(0)
	// Two re-requests fire, then the third deadline abandons the flow.
	for i := 0; i < 2; i++ {
		next, _ := m.NextDeadline()
		now = next
		out := m.Tick(now)
		if len(out) != 1 || out[0].BufferID == openflow.NoBuffer {
			t.Fatalf("attempt %d: expected one buffered re-request, got %v", i, out)
		}
	}
	next, ok := m.NextDeadline()
	if !ok {
		t.Fatal("no give-up deadline scheduled")
	}
	now = next
	out := m.Tick(now)
	if len(out) != 3 {
		t.Fatalf("give-up emitted %d packet_ins, want 3 (one per queued packet)", len(out))
	}
	for i, pi := range out {
		if pi.BufferID != openflow.NoBuffer {
			t.Errorf("fallback packet_in %d carries buffer id %d, want NoBuffer", i, pi.BufferID)
		}
		if !bytes.Equal(pi.Data, testData(i, 600)) {
			t.Errorf("fallback packet_in %d out of arrival order", i)
		}
	}

	if live := m.Pool().Live(); live != 0 {
		t.Errorf("pool units leaked on give-up: %d live", live)
	}
	if m.FlowsBuffered() != 0 {
		t.Errorf("flow records leaked on give-up: %d", m.FlowsBuffered())
	}
	st := m.Stats(now)
	if st.Giveups != 1 {
		t.Errorf("Giveups = %d, want 1", st.Giveups)
	}
	if st.DroppedNoBuffer != 3 {
		t.Errorf("fallbacks = %d, want 3", st.DroppedNoBuffer)
	}
	if st.Rerequests != 2 {
		t.Errorf("Rerequests = %d, want 2 (capped)", st.Rerequests)
	}
	if _, ok := m.NextDeadline(); ok {
		t.Error("deadline remains after give-up")
	}

	// The flow is forgotten: a new packet of the same 5-tuple starts a fresh
	// buffered flow with its own packet_in.
	res := m.HandleMiss(now+time.Millisecond, 1, testData(3, 600), key)
	if res.PacketIn == nil || !res.Buffered {
		t.Errorf("flow not restartable after give-up: %+v", res)
	}
}

// TestZeroPolicyRetriesForever pins backward compatibility: without a
// policy the mechanism never gives up and the wait never grows.
func TestZeroPolicyRetriesForever(t *testing.T) {
	m, err := NewFlowGranularity(16, 128, 50*time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.HandleMiss(0, 1, testData(0, 100), testKey(1))
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		next, ok := m.NextDeadline()
		if !ok {
			t.Fatalf("attempt %d: no deadline", i)
		}
		if got := next - now; got != 50*time.Millisecond {
			t.Fatalf("attempt %d: wait = %v, want fixed 50ms", i, got)
		}
		now = next
		out := m.Tick(now)
		if len(out) != 1 || out[0].BufferID == openflow.NoBuffer {
			t.Fatalf("attempt %d: got %v, want one buffered re-request", i, out)
		}
	}
	if st := m.Stats(now); st.Giveups != 0 {
		t.Errorf("Giveups = %d, want 0", st.Giveups)
	}
}

// TestNewMechanismAppliesRetryPolicy checks the wire-config bridge.
func TestNewMechanismAppliesRetryPolicy(t *testing.T) {
	mech, err := NewMechanism(openflow.FlowBufferConfig{
		Granularity:         openflow.GranularityFlow,
		RerequestTimeoutMs:  50,
		MaxRerequests:       8,
		RerequestBackoffPct: 200,
	}, 16, 128, 0)
	if err != nil {
		t.Fatalf("NewMechanism: %v", err)
	}
	fg, ok := mech.(*FlowGranularity)
	if !ok {
		t.Fatalf("mechanism is %T", mech)
	}
	if p := fg.RetryPolicy(); p.MaxRerequests != 8 || p.BackoffPct != 200 {
		t.Errorf("policy = %+v, want {8 200}", p)
	}
}

// TestFlowGiveUpInterleavingsLeakNothing drives the flow mechanism with a
// bounded retry policy through randomized miss/release/timer interleavings:
// whatever order gives-ups, releases and expiry land in, the pool must
// drain to zero units AND zero bytes.
func TestFlowGiveUpInterleavingsLeakNothing(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewFlowGranularity(16, 128, 10*time.Millisecond, 4, 40*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRetryPolicy(RetryPolicy{MaxRerequests: 2, BackoffPct: 100}); err != nil {
			t.Fatal(err)
		}

		now := time.Duration(0)
		var buffered []uint32
		for i := 0; i < 600; i++ {
			now += time.Duration(rng.Intn(3000)) * time.Microsecond
			switch rng.Intn(4) {
			case 0, 1: // miss: reuse a few keys so flows grow multi-packet queues
				res := m.HandleMiss(now, 1, testData(i, 400+rng.Intn(800)), testKey(rng.Intn(20)))
				if res.Buffered && res.PacketIn != nil {
					buffered = append(buffered, res.PacketIn.BufferID)
				}
			case 2: // controller answers a random outstanding flow
				if len(buffered) > 0 {
					j := rng.Intn(len(buffered))
					_, _ = m.Release(now, buffered[j])
					buffered = append(buffered[:j], buffered[j+1:]...)
				}
			case 3: // timers: re-requests, give-ups, expiry
				if d, ok := m.NextDeadline(); ok && d <= now {
					m.Tick(now)
				}
			}
		}
		// Drain: run every remaining deadline (give-ups and expiry fire), then
		// one final far-future tick.
		for guard := 0; ; guard++ {
			if guard > 10000 {
				t.Fatalf("seed %d: deadlines never drained", seed)
			}
			d, ok := m.NextDeadline()
			if !ok {
				break
			}
			now = d
			m.Tick(now)
		}
		m.Tick(now + time.Hour)
		if live := m.Pool().Live(); live != 0 {
			t.Fatalf("seed %d: %d units leaked", seed, live)
		}
		if b := m.Pool().BytesInUse(); b != 0 {
			t.Fatalf("seed %d: %d bytes leaked", seed, b)
		}
		if m.FlowsBuffered() != 0 {
			t.Fatalf("seed %d: %d flow records leaked", seed, m.FlowsBuffered())
		}
	}
}
