package switchd

import (
	"testing"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/sim"
)

func newScheduler(t *testing.T, k *sim.Kernel, mbps float64, queues ...QueueConfig) (*EgressScheduler, *netem.Link) {
	t.Helper()
	link, err := netem.NewLink(k, "egress", mbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEgressScheduler(k, link, QoSConfig{Queues: queues})
	if err != nil {
		t.Fatalf("NewEgressScheduler: %v", err)
	}
	return s, link
}

func TestQoSConfigValidation(t *testing.T) {
	if err := (QoSConfig{}).Validate(); err == nil {
		t.Error("accepted empty queue set")
	}
	if err := (QoSConfig{Queues: []QueueConfig{{ID: 1}, {ID: 1}}}).Validate(); err == nil {
		t.Error("accepted duplicate ids")
	}
	if err := (QoSConfig{Queues: []QueueConfig{{ID: 1, MaxDepth: -1}}}).Validate(); err == nil {
		t.Error("accepted negative depth")
	}
}

func TestStrictPriorityOrdering(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 8, // 1000 B takes 1 ms: easy to saturate
		QueueConfig{ID: 0, Priority: 0},
		QueueConfig{ID: 1, Priority: 10},
	)
	var order []string
	// Fill the link with a best-effort frame, then queue two more
	// best-effort and one priority frame while it transmits.
	s.Enqueue(0, make([]byte, 1000), func() { order = append(order, "be0") })
	s.Enqueue(0, make([]byte, 1000), func() { order = append(order, "be1") })
	s.Enqueue(0, make([]byte, 1000), func() { order = append(order, "be2") })
	s.Enqueue(1, make([]byte, 1000), func() { order = append(order, "prio") })
	k.Run()
	want := []string{"be0", "prio", "be1", "be2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityReducesLatencyUnderCongestion(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 8,
		QueueConfig{ID: 0, Priority: 0},
		QueueConfig{ID: 7, Priority: 100},
	)
	// 20 best-effort frames back to back, one priority frame injected
	// mid-burst.
	var prioAt, lastBEAt time.Duration
	for i := 0; i < 20; i++ {
		s.Enqueue(0, make([]byte, 1000), func() { lastBEAt = k.Now() })
	}
	k.After(2*time.Millisecond, func() {
		s.Enqueue(7, make([]byte, 1000), func() { prioAt = k.Now() })
	})
	k.Run()
	if prioAt == 0 || lastBEAt == 0 {
		t.Fatal("frames not delivered")
	}
	// The priority frame must exit well before the best-effort tail.
	if prioAt > lastBEAt/2 {
		t.Errorf("priority frame at %v vs best-effort tail %v: no preference", prioAt, lastBEAt)
	}
	sent, drops, wait, _, err := s.QueueStats(7)
	if err != nil || sent != 1 || drops != 0 {
		t.Errorf("prio stats = %d/%d/%v", sent, drops, err)
	}
	_, _, beWait, _, err := s.QueueStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if wait >= beWait {
		t.Errorf("priority wait %g not below best-effort wait %g", wait, beWait)
	}
}

func TestTailDrop(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 8, QueueConfig{ID: 0, Priority: 0, MaxDepth: 2})
	delivered := 0
	for i := 0; i < 10; i++ {
		s.Enqueue(0, make([]byte, 1000), func() { delivered++ })
	}
	k.Run()
	// One in flight immediately + 2 queued = 3 delivered, 7 dropped.
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
	_, drops, _, _, err := s.QueueStats(0)
	if err != nil || drops != 7 {
		t.Errorf("drops = %d/%v, want 7", drops, err)
	}
}

func TestUnknownQueueFallsBackToDefault(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 100, QueueConfig{ID: 0, Priority: 0})
	ok := false
	s.Enqueue(99, make([]byte, 100), func() { ok = true })
	k.Run()
	if !ok {
		t.Error("frame to unknown queue vanished")
	}
	if _, _, _, _, err := s.QueueStats(99); err == nil {
		t.Error("QueueStats accepted unknown queue")
	}
}

func TestDefaultQueueWithoutID0(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 100,
		QueueConfig{ID: 5, Priority: 10},
		QueueConfig{ID: 6, Priority: 1},
	)
	ok := false
	s.EnqueueDefault(make([]byte, 100), func() { ok = true })
	k.Run()
	if !ok {
		t.Error("default enqueue vanished")
	}
	// The default must be the lowest-priority queue.
	if sent, _, _, _, _ := s.QueueStats(6); sent != 1 {
		t.Errorf("default went to the wrong queue")
	}
}

func TestQoSWithSimSwitchEnqueueAction(t *testing.T) {
	// End to end: rules steer one flow into the priority queue via the
	// ENQUEUE action; under egress congestion its packets exit first.
	k := sim.New(1)
	cfg := DefaultSimConfig()
	cfg.Datapath = Config{DatapathID: 1, NumPorts: 2}
	sw, err := NewSimSwitch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	egress, err := netem.NewLink(k, "sw->h2", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewEgressScheduler(k, egress, QoSConfig{Queues: []QueueConfig{
		{ID: 0, Priority: 0},
		{ID: 1, Priority: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var deliveries []uint32
	sw.SetTransmitEx(func(o Output) {
		if o.Port != 2 {
			return
		}
		q := o.Queue
		sched.Enqueue(o.Queue, o.Frame, func() { deliveries = append(deliveries, q) })
	})

	// Install rules directly: best-effort flow -> output:2 (queue 0),
	// priority flow -> enqueue:2:1.
	beFrame := testFrame(t, "10.1.0.1", 1000, 900)
	prioFrame := testFrame(t, "10.1.0.2", 2000, 900)
	install := func(frame []byte, actions []openflow.Action) {
		parsed, err := parseForTest(frame)
		if err != nil {
			t.Fatal(err)
		}
		fm := openflow.MustEncode(&openflow.FlowMod{
			Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 100, BufferID: openflow.NoBuffer, Actions: actions,
		}, 1)
		sw.DeliverControl(fm)
	}
	install(beFrame, []openflow.Action{&openflow.ActionOutput{Port: 2}})
	install(prioFrame, []openflow.Action{&openflow.ActionEnqueue{Port: 2, QueueID: 1}})
	k.Run()

	// Saturate with best-effort, then send the priority flow.
	for i := 0; i < 10; i++ {
		sw.Ingest(1, beFrame)
	}
	k.Drain(3 * time.Millisecond)
	sw.Ingest(1, prioFrame)
	k.Run()

	if len(deliveries) != 11 {
		t.Fatalf("deliveries = %d, want 11", len(deliveries))
	}
	// The priority frame (queue 1) must not be last.
	if deliveries[len(deliveries)-1] == 1 {
		t.Errorf("priority frame delivered last: %v", deliveries)
	}
	pos := -1
	for i, q := range deliveries {
		if q == 1 {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 6 {
		t.Errorf("priority frame delivered at position %d of %d: %v", pos, len(deliveries), deliveries)
	}
}

func TestSchedulerPending(t *testing.T) {
	k := sim.New(1)
	s, _ := newScheduler(t, k, 8, QueueConfig{ID: 0, Priority: 0})
	for i := 0; i < 4; i++ {
		s.Enqueue(0, make([]byte, 1000), nil)
	}
	// One in service, three waiting.
	if got := s.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	k.Run()
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after drain = %d, want 0", got)
	}
}
