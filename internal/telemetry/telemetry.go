// Package telemetry is the platform's observability layer: a low-overhead
// packet-lifecycle tracer (a pre-sized ring-buffer flight recorder fed by
// typed span events), a NetFlow-style per-5-tuple flow-record exporter, and
// a per-stage delay decomposition computed from recorded spans.
//
// The subsystem is off by default and built to observe, never perturb:
//
//   - Hot-path cost when disabled is one nil-pointer (or one atomic-bool)
//     check and zero allocations. Components hold nil recorders unless the
//     testbed configuration asks for telemetry, and every entry point is
//     nil-receiver safe, so instrumented call sites cost nothing in the
//     default build. BenchmarkTelemetryDisabled pins this.
//   - Recording never schedules kernel events, draws from any RNG, or
//     otherwise feeds back into the simulation: flow expiry is evaluated
//     lazily on the next observation rather than by timers, and spans go
//     into a fixed-size ring that overwrites its oldest entry when full
//     (Dropped counts the overwrites). Kernel event order — and therefore
//     every legacy experiment CSV — is byte-identical with telemetry on or
//     off (DESIGN.md §12).
//
// Like the sim kernel it observes, a Recorder is confined to one goroutine;
// independent recorders (one per sweep cell) share no mutable state. The
// process-wide enable gate is the only shared word, and it is atomic.
package telemetry

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/packet"
)

// SpanKind classifies one lifecycle stage of a packet (or control message)
// as it moves through the platform. The taxonomy follows the pipeline:
// ingress → table lookup (forward | miss) → buffer enqueue → packet_in →
// controller service → flow_mod/packet_out → drain → egress, plus the
// derived flow-setup stage and the mechanism's re-request/give-up events.
type SpanKind uint8

// Span kinds. Interval kinds have End > Start; instant kinds carry the
// event's time in both fields.
const (
	// KindIngress spans frame arrival on a data port to datapath pickup
	// (switch CPU queueing plus per-packet service).
	KindIngress SpanKind = iota
	// KindForward marks a flow-table hit emitting on the fast path (instant).
	KindForward
	// KindMiss marks a flow-table miss entering the buffer mechanism
	// (instant).
	KindMiss
	// KindBufferEnqueue marks a miss-match packet stored into a buffer unit
	// (instant; Ref is the buffer_id).
	KindBufferEnqueue
	// KindPacketIn spans packet_in construction to its departure onto the
	// control link (switch CPU + plane-CPU bus transfer; Ref is the xid).
	KindPacketIn
	// KindControllerService spans control-message arrival at the controller
	// to its replies being handed to the downlink (controller CPU queueing
	// plus application service; Ref is the xid).
	KindControllerService
	// KindControllerRTT spans packet_in departure to first response arrival,
	// measured at the switch — the paper's controller delay (§III.B; Ref is
	// the xid).
	KindControllerRTT
	// KindFlowMod marks a flow_mod reaching the datapath (instant; Ref is
	// the xid).
	KindFlowMod
	// KindPacketOut marks a packet_out reaching the datapath (instant; Ref
	// is the xid).
	KindPacketOut
	// KindBufferDrain spans a packet's buffer residency: stored on miss to
	// released through a rule or packet_out (Ref is the buffer_id).
	KindBufferDrain
	// KindRerequest marks the mechanism re-sending a flow's packet_in after
	// the re-request timeout (instant; Ref is the buffer_id).
	KindRerequest
	// KindGiveup marks the mechanism abandoning controller-driven release
	// for a flow (instant; Ref is the buffer_id).
	KindGiveup
	// KindEgress marks a frame leaving the switch on a data port (instant;
	// Ref is the port).
	KindEgress
	// KindFlowSetup spans a flow's first packet entering the platform to its
	// first packet leaving the switch — the paper's flow setup delay.
	KindFlowSetup
	// KindSwitchCPU spans one switch-CPU job's service interval (start to
	// finish, excluding queueing), fed by the sim resource trace hook.
	KindSwitchCPU
	// KindControllerCPU spans one controller-CPU job's service interval,
	// fed by the sim resource trace hook.
	KindControllerCPU
	// KindHopResidency spans a tracked frame's ingress at one fabric switch
	// to its egress from the same switch (Ref is the path position).
	KindHopResidency
	// KindHopLink spans a tracked frame's egress from one fabric switch to
	// its ingress at the next path switch — the inter-hop link leg (Ref is
	// the upstream path position).
	KindHopLink
	// KindFlowEvict marks a rule leaving the flow table (instant; Ref is
	// the flow_removed reason code).
	KindFlowEvict
	// KindAggregate marks the controller compressing a switch's per-flow
	// rules into a per-destination-prefix rule, or undoing it on reroute
	// (instant; Ref is the number of per-flow rules replaced, 0 for a
	// de-aggregation reset).
	KindAggregate

	numSpanKinds // sentinel: keep last
)

// NumSpanKinds is the number of defined span kinds.
const NumSpanKinds = int(numSpanKinds)

var spanKindNames = [...]string{
	KindIngress:           "ingress",
	KindForward:           "forward",
	KindMiss:              "miss",
	KindBufferEnqueue:     "buffer_enqueue",
	KindPacketIn:          "packet_in",
	KindControllerService: "controller_service",
	KindControllerRTT:     "controller_rtt",
	KindFlowMod:           "flow_mod",
	KindPacketOut:         "packet_out",
	KindBufferDrain:       "buffer_drain",
	KindRerequest:         "rerequest",
	KindGiveup:            "giveup",
	KindEgress:            "egress",
	KindFlowSetup:         "flow_setup",
	KindSwitchCPU:         "switch_cpu",
	KindControllerCPU:     "controller_cpu",
	KindHopResidency:      "hop_residency",
	KindHopLink:           "hop_link",
	KindFlowEvict:         "flow_evict",
	KindAggregate:         "aggregate",
}

// String names the kind as it appears in CSV and trace output.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one recorded lifecycle event. It is a compact value type (32
// bytes) so the ring buffer is a single flat allocation: Start and End are
// virtual-time offsets, Flow is the FNV-32a hash of the packet's 5-tuple
// (HashKey; 0 when unattributed), Ref is a kind-specific correlator (xid,
// buffer_id or port) and Bytes is the payload size.
type Span struct {
	Start time.Duration
	End   time.Duration
	Flow  uint32
	Ref   uint32
	Bytes uint32
	Kind  SpanKind
}

// Duration reports the span's extent (zero for instant kinds).
func (s Span) Duration() time.Duration { return s.End - s.Start }

// on is the process-wide enable gate. Emission entry points check it after
// the nil-receiver check, so a recorder that exists but is globally disabled
// still records nothing and costs one atomic load.
var on atomic.Bool

// Enabled reports whether telemetry recording is on.
func Enabled() bool { return on.Load() }

// SetEnabled flips the process-wide recording gate. The testbed turns it on
// when a configuration requests telemetry; it is never turned off
// implicitly.
func SetEnabled(v bool) { on.Store(v) }

// Tracer is the flight recorder: a fixed-capacity ring of spans that
// overwrites its oldest entry when full. The fixed footprint is what makes
// always-on tracing safe at paper scale — a run that emits millions of
// spans keeps only the newest window and counts the rest in Dropped.
type Tracer struct {
	spans []Span
	next  int    // ring cursor: index of the next write
	n     uint64 // total spans ever emitted
}

// DefaultSpanCapacity is the ring size used when a Config leaves
// SpanCapacity zero: enough for every span of a quickstart run, small
// enough (~2 MB) to embed one per sweep cell.
const DefaultSpanCapacity = 1 << 16

// NewTracer creates a tracer with the given ring capacity (values < 1 use
// DefaultSpanCapacity). The ring is allocated up front; Emit never
// allocates.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{spans: make([]Span, 0, capacity)}
}

// Emit records one span. It is nil-receiver safe and gated on the
// process-wide enable flag, so instrumented call sites may call it
// unconditionally; the disabled cost is the guard alone.
func (t *Tracer) Emit(s Span) {
	if t == nil || !on.Load() {
		return
	}
	t.n++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	// Ring full: overwrite the oldest entry.
	t.spans[t.next] = s
	t.next++
	if t.next == len(t.spans) {
		t.next = 0
	}
}

// Len reports the number of spans currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Emitted reports the total number of spans ever emitted, including
// overwritten ones.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped reports how many spans were overwritten because the ring was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if held := uint64(len(t.spans)); t.n > held {
		return t.n - held
	}
	return 0
}

// Snapshot returns the held spans in emission order (oldest first). The
// returned slice is freshly allocated; the ring keeps recording.
func (t *Tracer) Snapshot() []Span {
	if t == nil || len(t.spans) == 0 {
		return nil
	}
	out := make([]Span, 0, len(t.spans))
	if len(t.spans) == cap(t.spans) {
		out = append(out, t.spans[t.next:]...) // oldest segment
		out = append(out, t.spans[:t.next]...)
		return out
	}
	return append(out, t.spans...)
}

// HashKey derives a span's 32-bit flow identity from the 5-tuple: FNV-32a
// over (src IP, dst IP, src port, dst port, protocol) — the same 13-byte
// layout the flow-granularity mechanism hashes for its buffer_ids, so flow
// attribution in traces lines up with buffer_id derivation.
func HashKey(key packet.FlowKey) uint32 {
	h := fnv.New32a()
	src := key.SrcIP.As4()
	dst := key.DstIP.As4()
	var b [13]byte
	copy(b[0:4], src[:])
	copy(b[4:8], dst[:])
	binary.BigEndian.PutUint16(b[8:10], key.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], key.DstPort)
	b[12] = key.Proto
	_, _ = h.Write(b[:]) // fnv never errors
	return h.Sum32()
}

// Config describes one recorder instance.
type Config struct {
	// SpanCapacity is the tracer ring size (default DefaultSpanCapacity).
	SpanCapacity int
	// FlowIdleTimeout expires a flow record after this much virtual time
	// without an observation (default 15s, NetFlow's default inactive
	// timer).
	FlowIdleTimeout time.Duration
	// FlowActiveTimeout expires a long-lived flow record after this much
	// virtual time since its first observation (default 30min, NetFlow's
	// default active timer).
	FlowActiveTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.SpanCapacity < 1 {
		c.SpanCapacity = DefaultSpanCapacity
	}
	if c.FlowIdleTimeout <= 0 {
		c.FlowIdleTimeout = 15 * time.Second
	}
	if c.FlowActiveTimeout <= 0 {
		c.FlowActiveTimeout = 30 * time.Minute
	}
	return c
}

// Recorder bundles the span tracer and the flow-record exporter that one
// platform instance feeds. Components hold a *Recorder (nil when telemetry
// is not configured) and call its hooks unconditionally: every method is
// nil-receiver safe and checks the process-wide gate first.
type Recorder struct {
	tracer *Tracer
	flows  *FlowExporter
}

// NewRecorder builds a recorder from the configuration.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		tracer: NewTracer(cfg.SpanCapacity),
		flows:  NewFlowExporter(cfg.FlowIdleTimeout, cfg.FlowActiveTimeout),
	}
}

// Tracer exposes the span ring (nil on a nil recorder).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Flows exposes the flow-record exporter (nil on a nil recorder).
func (r *Recorder) Flows() *FlowExporter {
	if r == nil {
		return nil
	}
	return r.flows
}

// Span records an interval span.
func (r *Recorder) Span(kind SpanKind, start, end time.Duration, flow, ref, bytes uint32) {
	if r == nil || !on.Load() {
		return
	}
	r.tracer.Emit(Span{Kind: kind, Start: start, End: end, Flow: flow, Ref: ref, Bytes: bytes})
}

// Instant records a zero-duration span at now.
func (r *Recorder) Instant(kind SpanKind, now time.Duration, flow, ref, bytes uint32) {
	r.Span(kind, now, now, flow, ref, bytes)
}

// FlowObserve accounts one packet of a flow in the NetFlow cache.
func (r *Recorder) FlowObserve(now time.Duration, key packet.FlowKey, bytes int) {
	if r == nil || !on.Load() {
		return
	}
	r.flows.Observe(now, key, bytes)
}

// FlowResidency credits buffer residency time to a flow's record.
func (r *Recorder) FlowResidency(key packet.FlowKey, d time.Duration) {
	if r == nil || !on.Load() {
		return
	}
	r.flows.AddResidency(key, d)
}

// FlowBuffered credits bytes admitted into the buffer pool to a flow's
// record.
func (r *Recorder) FlowBuffered(key packet.FlowKey, bytes int) {
	if r == nil || !on.Load() {
		return
	}
	r.flows.AddBufferedBytes(key, bytes)
}

// FlowRerequest counts one packet_in re-request against a flow's record.
func (r *Recorder) FlowRerequest(key packet.FlowKey) {
	if r == nil || !on.Load() {
		return
	}
	r.flows.AddRerequest(key)
}

// FlowGiveup counts one mechanism give-up against a flow's record.
func (r *Recorder) FlowGiveup(key packet.FlowKey) {
	if r == nil || !on.Load() {
		return
	}
	r.flows.AddGiveup(key)
}

// Finish closes the recording window at now: every live flow record is
// expired and queued for export. Call once, after the run quiesces.
func (r *Recorder) Finish(now time.Duration) {
	if r == nil {
		return
	}
	r.flows.FlushAll(now)
}
