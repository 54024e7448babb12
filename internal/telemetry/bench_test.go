package telemetry

import (
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/packet"
)

func testFlowKeyForBench() packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   netip.MustParseAddr("10.1.0.1"),
		DstIP:   netip.MustParseAddr("10.0.0.2"),
		SrcPort: 4242,
		DstPort: 80,
		Proto:   17,
	}
}

// The overhead contract (DESIGN.md §12): the disabled hook path — what
// every instrumented call site pays in the default build — must cost ≤1 ns
// and 0 allocs on top of the hot-path baselines. TestDisabledPathAllocsNothing
// pins the allocation half and the bench telemetry.disabled_ns row tracks
// the nanoseconds; the enabled benchmarks quantify the flight-recorder cost.

// BenchmarkTelemetryDisabledNilRecorder is the default wiring: components
// hold a nil *Recorder, so the whole hook is one nil check.
func BenchmarkTelemetryDisabledNilRecorder(b *testing.B) {
	SetEnabled(false)
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Span(KindIngress, 0, time.Microsecond, 1, 2, 1000)
	}
}

// BenchmarkTelemetryDisabledGate is a live recorder with the process gate
// off: one atomic load on top of the nil check.
func BenchmarkTelemetryDisabledGate(b *testing.B) {
	SetEnabled(false)
	rec := NewRecorder(Config{SpanCapacity: 1 << 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Span(KindIngress, 0, time.Microsecond, 1, 2, 1000)
	}
}

// BenchmarkTelemetryEnabledSpan is the full ring write.
func BenchmarkTelemetryEnabledSpan(b *testing.B) {
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	rec := NewRecorder(Config{SpanCapacity: 1 << 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Span(KindIngress, 0, time.Microsecond, 1, 2, 1000)
	}
}

// BenchmarkTelemetryEnabledFlowObserve is the flow-cache update (one map
// lookup on the steady state).
func BenchmarkTelemetryEnabledFlowObserve(b *testing.B) {
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	rec := NewRecorder(Config{})
	key := testFlowKeyForBench()
	now := time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		rec.FlowObserve(now, key, 1000)
	}
}
