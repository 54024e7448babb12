// Package netem models network links for the simulated testbed: a Link has
// finite bandwidth, a propagation delay, and a FIFO transmission queue
// (unbounded by default, optionally byte-capped with drop-tail), so message
// delivery time depends on how much traffic is already in flight — exactly
// the contention that shapes the paper's delay curves when full miss-match
// packets flood the control path.
//
// Beyond the base bandwidth/delay model, a Link can carry a seeded
// Impairment: i.i.d. or Gilbert–Elliott bursty loss, reordering,
// duplication, jitter, and timed outage windows. All randomness is drawn
// from the sim kernel's RNG in a fixed per-payload order, so a given seed
// replays the exact same fault schedule (the chaos package builds plans on
// top of this).
//
// Taps observe every payload at enqueue time; the capture package uses them
// as the tcpdump equivalent. Tap counts are therefore offered traffic: a
// payload later lost, tail-dropped or blanked by an outage was still tapped.
package netem

import (
	"errors"
	"fmt"
	"time"

	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/sim"
)

// ErrInvalidWindow is the typed cause wrapped by every window validation
// failure (empty, inverted or negative intervals), so callers assembling
// failure plans or impairments can distinguish a bad window from other
// configuration errors with errors.Is.
var ErrInvalidWindow = errors.New("netem: invalid window")

// Window is a half-open interval [Start, End) of virtual time, used for
// outage schedules and fault-injection windows.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// Validate rejects empty or negative windows with an error wrapping
// ErrInvalidWindow.
func (w Window) Validate() error {
	if w.Start < 0 || w.End <= w.Start {
		return fmt.Errorf("%w: [%v, %v)", ErrInvalidWindow, w.Start, w.End)
	}
	return nil
}

// GilbertElliott is the classic two-state bursty loss model: the channel
// alternates between a good and a bad state with per-payload transition
// probabilities, and drops payloads with a state-dependent probability.
// Control-channel loss is bursty in practice (queue overflow episodes, not
// independent coin flips), and burstiness is what stresses the re-request
// timer hardest: a burst can eat the original packet_in and its first
// re-request together.
type GilbertElliott struct {
	PGoodBad float64 // P(good → bad) evaluated per payload
	PBadGood float64 // P(bad → good) evaluated per payload
	LossGood float64 // drop probability while in the good state
	LossBad  float64 // drop probability while in the bad state
}

// Validate rejects out-of-range probabilities.
func (g GilbertElliott) Validate() error {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("netem: Gilbert–Elliott probability %g outside [0, 1]", p)
		}
	}
	return nil
}

// MeanLossRate reports the model's stationary loss rate.
func (g GilbertElliott) MeanLossRate() float64 {
	denom := g.PGoodBad + g.PBadGood
	if denom == 0 {
		return g.LossGood
	}
	pBad := g.PGoodBad / denom
	return pBad*g.LossBad + (1-pBad)*g.LossGood
}

// Impairment is a link's full fault configuration. The zero value is a clean
// link; each feature draws from the kernel RNG only when enabled, so a link
// with a zero Impairment consumes exactly the same random sequence as one
// that was never configured — byte-identical experiment CSVs either way.
type Impairment struct {
	// LossRate drops each payload independently (the legacy SetLossRate
	// knob). Ignored when Gilbert is set.
	LossRate float64
	// Gilbert enables the two-state bursty loss model.
	Gilbert *GilbertElliott
	// ReorderProb delays a payload by ReorderDelay with this probability, so
	// it lands behind later traffic.
	ReorderProb  float64
	ReorderDelay time.Duration
	// DuplicateProb delivers a second copy of a (not lost) payload,
	// DuplicateDelay after the first.
	DuplicateProb  float64
	DuplicateDelay time.Duration
	// JitterMax adds a uniform random delay in [0, JitterMax) per payload.
	JitterMax time.Duration
	// Outages are timed windows during which every payload is dropped at
	// enqueue — the control-channel blackouts of the resilience experiments.
	Outages []Window
	// QueueCapBytes bounds the transmission queue: a payload that would push
	// the serialization backlog past this many bytes is tail-dropped.
	// 0 keeps the historical unbounded FIFO.
	QueueCapBytes int
}

// Validate rejects out-of-range impairment parameters.
func (imp *Impairment) Validate() error {
	for name, p := range map[string]float64{
		"loss rate": imp.LossRate, "reorder": imp.ReorderProb, "duplicate": imp.DuplicateProb,
	} {
		if p < 0 || p >= 1 {
			return fmt.Errorf("netem: %s probability must be in [0, 1), got %g", name, p)
		}
	}
	if imp.Gilbert != nil {
		if err := imp.Gilbert.Validate(); err != nil {
			return err
		}
	}
	if imp.ReorderProb > 0 && imp.ReorderDelay <= 0 {
		return fmt.Errorf("netem: reorder probability %g needs a positive reorder delay", imp.ReorderProb)
	}
	if imp.DuplicateDelay < 0 || imp.ReorderDelay < 0 || imp.JitterMax < 0 {
		return fmt.Errorf("netem: negative impairment delay")
	}
	if imp.QueueCapBytes < 0 {
		return fmt.Errorf("netem: negative queue cap %d", imp.QueueCapBytes)
	}
	for _, w := range imp.Outages {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Enabled reports whether any fault feature is active.
func (imp *Impairment) Enabled() bool {
	return imp.LossRate > 0 || imp.Gilbert != nil || imp.ReorderProb > 0 ||
		imp.DuplicateProb > 0 || imp.JitterMax > 0 || len(imp.Outages) > 0 ||
		imp.QueueCapBytes > 0
}

// Tap observes a payload as it enters the link.
type Tap func(now time.Duration, payload []byte)

// Link is a unidirectional bandwidth-limited channel. Use two Links for a
// full-duplex cable.
type Link struct {
	kernel      *sim.Kernel
	name        string
	bitsPerSec  float64
	propagation time.Duration
	lossRate    float64
	imp         Impairment
	geBad       bool // Gilbert–Elliott channel state

	busyUntil  time.Duration
	taps       []Tap
	traffic    metrics.Counter
	dropped    metrics.Counter
	queueDelay metrics.Summary
	inFlight   metrics.Gauge

	tailDropped   metrics.Counter
	outageDropped metrics.Counter
	duplicated    metrics.Counter
	reordered     metrics.Counter
}

// NewLink creates a link with the given bandwidth in megabits per second
// and one-way propagation delay.
func NewLink(k *sim.Kernel, name string, mbps float64, propagation time.Duration) (*Link, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("netem: link %q bandwidth must be positive, got %g Mbps", name, mbps)
	}
	if propagation < 0 {
		return nil, fmt.Errorf("netem: link %q negative propagation %v", name, propagation)
	}
	return &Link{
		kernel:      k,
		name:        name,
		bitsPerSec:  mbps * 1e6,
		propagation: propagation,
	}, nil
}

// Name reports the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// BandwidthMbps reports the configured bandwidth.
func (l *Link) BandwidthMbps() float64 { return l.bitsPerSec / 1e6 }

// AddTap registers an observer for every payload entering the link.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetLossRate makes the link drop each payload independently with the given
// probability, drawn from the kernel's deterministic RNG. Dropped payloads
// are still observed by taps and traffic accounting (they entered the wire)
// but their deliver callback never runs. Rates outside [0, 1) are an error.
func (l *Link) SetLossRate(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("netem: link %q loss rate must be in [0, 1), got %g", l.name, p)
	}
	l.lossRate = p
	return nil
}

// SetImpairment installs a fault configuration on the link. An impairment
// with LossRate > 0 (or Gilbert set) overrides any earlier SetLossRate;
// otherwise the legacy loss knob is preserved, so the testbed can layer an
// outage/reorder plan on top of its configured control-path loss rate.
// Resets the Gilbert–Elliott channel to the good state.
func (l *Link) SetImpairment(imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return fmt.Errorf("link %q: %w", l.name, err)
	}
	l.imp = imp
	l.geBad = false
	if imp.LossRate > 0 {
		l.lossRate = imp.LossRate
	}
	return nil
}

// Impaired reports whether any fault feature is active on the link.
func (l *Link) Impaired() bool { return l.imp.Enabled() || l.lossRate > 0 }

// Dropped reports payloads lost to injected loss, tail drops, and outages.
func (l *Link) Dropped() (count, bytes int64) {
	return l.dropped.Count(), l.dropped.Bytes()
}

// FaultCounters breaks link drops and anomalies down by cause. Random loss
// (i.i.d. or Gilbert–Elliott) is Dropped() minus TailDropped minus
// OutageDropped.
type FaultCounters struct {
	TailDropped   int64 // payloads exceeding QueueCapBytes
	OutageDropped int64 // payloads enqueued during an outage window
	Duplicated    int64 // extra copies delivered
	Reordered     int64 // payloads delayed by the reorder impairment
}

// Faults reports the per-cause fault counters.
func (l *Link) Faults() FaultCounters {
	return FaultCounters{
		TailDropped:   l.tailDropped.Count(),
		OutageDropped: l.outageDropped.Count(),
		Duplicated:    l.duplicated.Count(),
		Reordered:     l.reordered.Count(),
	}
}

// QueueBacklogBytes reports how many bytes are waiting to start or finish
// serialization at time now. The transmission queue is not materialized as a
// list: under the serialization model the backlog is exactly the remaining
// busy time converted back to bytes.
func (l *Link) QueueBacklogBytes(now time.Duration) int {
	if l.busyUntil <= now {
		return 0
	}
	return int((l.busyUntil - now).Seconds() * l.bitsPerSec / 8)
}

// inOutage reports whether t falls inside any configured outage window.
func (l *Link) inOutage(t time.Duration) bool {
	for _, w := range l.imp.Outages {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// TransmissionTime reports how long serializing size bytes onto the wire
// takes at the link's bandwidth.
func (l *Link) TransmissionTime(size int) time.Duration {
	return time.Duration(float64(size) * 8 / l.bitsPerSec * float64(time.Second))
}

// Send enqueues a payload. deliver runs when the last bit arrives at the
// far end: after any queueing behind in-flight payloads, the transmission
// time, and the propagation delay. deliver may be nil for fire-and-forget
// accounting. The payload is observed by taps immediately.
//
// Faults are evaluated in a fixed per-payload order — outage, queue cap,
// loss (Gilbert–Elliott state transition then drop draw, or i.i.d. draw),
// jitter, reorder, duplicate — and each RNG draw happens only when its
// feature is enabled, so an unimpaired link consumes the identical random
// sequence it always has.
func (l *Link) Send(payload []byte, deliver func()) {
	now := l.kernel.Now()
	for _, tap := range l.taps {
		tap(now, payload)
	}
	l.traffic.Inc(len(payload))

	// Outage: the wire is dark. The payload never occupies the queue and no
	// random draws are consumed, so the post-outage schedule is unaffected.
	if len(l.imp.Outages) > 0 && l.inOutage(now) {
		l.dropped.Inc(len(payload))
		l.outageDropped.Inc(len(payload))
		return
	}

	// Drop-tail queue cap: reject payloads that would push the serialization
	// backlog past the byte budget. Checked before any RNG draw.
	if l.imp.QueueCapBytes > 0 && l.QueueBacklogBytes(now)+len(payload) > l.imp.QueueCapBytes {
		l.dropped.Inc(len(payload))
		l.tailDropped.Inc(len(payload))
		return
	}

	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.queueDelay.Observe((start - now).Seconds())
	done := start + l.TransmissionTime(len(payload))
	l.busyUntil = done

	var lost bool
	if g := l.imp.Gilbert; g != nil {
		rng := l.kernel.Rand()
		if l.geBad {
			if rng.Float64() < g.PBadGood {
				l.geBad = false
			}
		} else {
			if rng.Float64() < g.PGoodBad {
				l.geBad = true
			}
		}
		p := g.LossGood
		if l.geBad {
			p = g.LossBad
		}
		lost = p > 0 && rng.Float64() < p
	} else {
		lost = l.lossRate > 0 && l.kernel.Rand().Float64() < l.lossRate
	}
	if lost {
		l.dropped.Inc(len(payload))
	}

	extra := time.Duration(0)
	if l.imp.JitterMax > 0 {
		extra += time.Duration(l.kernel.Rand().Float64() * float64(l.imp.JitterMax))
	}
	if l.imp.ReorderProb > 0 && l.kernel.Rand().Float64() < l.imp.ReorderProb {
		extra += l.imp.ReorderDelay
		if !lost {
			l.reordered.Inc(len(payload))
		}
	}
	duplicate := false
	if l.imp.DuplicateProb > 0 && l.kernel.Rand().Float64() < l.imp.DuplicateProb {
		duplicate = !lost
	}

	arrival := done + l.propagation + extra
	l.inFlight.Add(now, 1)
	l.kernel.At(arrival, func() {
		l.inFlight.Add(l.kernel.Now(), -1)
		if !lost && deliver != nil {
			deliver()
		}
	})
	if duplicate {
		l.duplicated.Inc(len(payload))
		l.kernel.At(arrival+l.imp.DuplicateDelay, func() {
			if deliver != nil {
				deliver()
			}
		})
	}
}

// QueueingDelay reports the distribution of time payloads waited behind
// earlier traffic before starting transmission (seconds).
func (l *Link) QueueingDelay() *metrics.Summary { return &l.queueDelay }

// Traffic reports cumulative payload count and bytes offered to the link.
func (l *Link) Traffic() (count, bytes int64) {
	return l.traffic.Count(), l.traffic.Bytes()
}

// UtilizationPercent reports offered load as a percentage of link capacity
// over the window [0, now].
func (l *Link) UtilizationPercent(now time.Duration) float64 {
	if now <= 0 {
		return 0
	}
	return metrics.Rate(l.traffic.Bytes(), now) / l.BandwidthMbps() * 100
}

// MeanInFlight reports the time-averaged number of payloads queued or in
// transit.
func (l *Link) MeanInFlight(now time.Duration) float64 {
	l.inFlight.Finish(now)
	return l.inFlight.TimeAverage()
}

// Duplex bundles the two directions of a cable.
type Duplex struct {
	AtoB *Link
	BtoA *Link
}

// NewDuplex creates a symmetric full-duplex cable.
func NewDuplex(k *sim.Kernel, name string, mbps float64, propagation time.Duration) (*Duplex, error) {
	ab, err := NewLink(k, name+":a->b", mbps, propagation)
	if err != nil {
		return nil, err
	}
	ba, err := NewLink(k, name+":b->a", mbps, propagation)
	if err != nil {
		return nil, err
	}
	return &Duplex{AtoB: ab, BtoA: ba}, nil
}
