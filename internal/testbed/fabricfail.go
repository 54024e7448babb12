package testbed

import (
	"sort"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/topo"
)

// Fabric survivability (DESIGN.md §16): the failure plan becomes ordinary
// kernel events, one per (affected switch, transition). Detection and recovery then run entirely through modeled channels: the
// switch announces port_status over its control link, the mastering shard
// swaps its routing snapshot and flushes, and peers learn the transition
// over the inter-controller sync link wired below.

// initSurvivability allocates the plan-gated observers: per-switch ingress
// counts for the loop oracle, the delivery timeline for convergence, and
// the visit bound. The bound is 1 + the plan's total edge transitions: the
// flush-and-swap protocol routes every frame by at most one BFS tree per
// table epoch, and each learned transition opens at most one new epoch, so
// a frame legitimately enters a given switch at most that many times — any
// excess is a forwarding loop.
func (fb *Fabric) initSurvivability(plan *netem.FailurePlan) {
	fb.swIngress = make([]map[frameIdent]int, fb.g.NumSwitches())
	for i := range fb.swIngress {
		fb.swIngress[i] = make(map[frameIdent]int)
	}
	fb.deliveryTimes = make([]time.Duration, 0, 256)

	transitions := 2 * len(plan.Links)
	for _, sf := range plan.Switches {
		for p := 1; p <= fb.g.NumPorts(sf.Switch); p++ {
			if peer, ok := fb.g.PeerOf(sf.Switch, uint16(p)); ok && peer.Switch >= 0 {
				transitions += 2
			}
		}
	}
	fb.visitBound = 1 + transitions

	for _, lf := range plan.Links {
		fb.failStarts = append(fb.failStarts, lf.Window.Start)
	}
	for _, sf := range plan.Switches {
		fb.failStarts = append(fb.failStarts, sf.Window.Start)
	}
	sort.Slice(fb.failStarts, func(a, b int) bool { return fb.failStarts[a] < fb.failStarts[b] })
}

// scheduleFailures turns the plan into kernel events. A link failure flips
// the facing port on each endpoint; a switch failure crashes the chassis
// and takes every neighbor's facing port down —
// carrier loss is how the fabric detects a dead peer, exactly as hardware
// would. Port state is symmetric: the egress backstop stops new sends at
// the source from w.Start, and onTransmit destroys what the failure caught
// mid-air when it arrives to the dead far end.
func (fb *Fabric) scheduleFailures(plan *netem.FailurePlan) {
	for _, lf := range plan.Links {
		pa, pb, _ := fb.g.EdgePorts(lf.A, lf.B)
		fb.schedulePortWindow(lf.A, pa, lf.Window)
		fb.schedulePortWindow(lf.B, pb, lf.Window)
	}
	for _, sf := range plan.Switches {
		i, w := sf.Switch, sf.Window
		fb.kernel.At(w.Start, func() { fb.sws[i].Crash() }) // loss lands in FailureStats
		fb.kernel.At(w.End, func() { fb.sws[i].Restart() })
		for p := 1; p <= fb.g.NumPorts(i); p++ {
			peer, ok := fb.g.PeerOf(i, uint16(p))
			if !ok || peer.Switch < 0 {
				continue
			}
			fb.schedulePortWindow(peer.Switch, peer.Port, w)
		}
	}
}

// schedulePortWindow takes one switch port down for the window.
// SetPortDown is idempotent, so overlapping plan
// entries converge instead of double-notifying.
func (fb *Fabric) schedulePortWindow(sw int, port uint16, w netem.Window) {
	fb.kernel.At(w.Start, func() { _ = fb.sws[sw].SetPortDown(port, true) })
	fb.kernel.At(w.End, func() { _ = fb.sws[sw].SetPortDown(port, false) })
}

// wirePeerSync connects the shards' topology views: a first-hand learned
// edge transition reaches every other shard one control-link propagation
// later, as a LearnEdge delivery on that shard. The receiving
// shard's flushes then leave through its normal controller egress
// (InjectDirected), paying the normal CPU and link costs. A crashed
// controller misses the sync — counted with the other control losses —
// and reconverges only through its own switches' port_status reports.
func (fb *Fabric) wirePeerSync() {
	delay := fb.cfg.ControlLinkPropagation
	if delay <= 0 {
		delay = time.Nanosecond
	}
	for j := range fb.apps {
		j := j
		fb.apps[j].SetPeerNotify(func(e topo.EdgeKey, down bool) {
			t := fb.kernel.Now() + delay
			for j2 := range fb.apps {
				if j2 == j {
					continue
				}
				j2 := j2
				fb.kernel.At(t, func() {
					if fb.ctlDown[j2] {
						fb.ctlDropped++
						return
					}
					if dirs := fb.apps[j2].LearnEdge(e, down); len(dirs) > 0 {
						fb.ctls[j2].InjectDirected(dirs)
					}
				})
			}
		})
	}
}

// noteIngress feeds the loop oracle: one count per workload frame entering
// a switch.
func (fb *Fabric) noteIngress(sw int, frame []byte) {
	if fb.swIngress == nil {
		return
	}
	if ident, _, ok := fb.identify(frame); ok {
		fb.swIngress[sw][ident]++
	}
}

// loopFrames sums switch visits beyond the table-epoch bound. Zero means
// no frame ever circulated; a genuine forwarding loop revisits its switches
// once per wire round trip and blows far past the bound.
func (fb *Fabric) loopFrames() int64 {
	var loops int64
	for _, counts := range fb.swIngress {
		for _, n := range counts {
			if n > fb.visitBound {
				loops += int64(n - fb.visitBound)
			}
		}
	}
	return loops
}

// convergenceTime reports the longest delivery gap any failure opened: for
// each failure-window start, the wait until the destination edge saw its
// next frame. Deliveries are recorded in time order, so the first at-or-after entry is the reconvergence point.
func (fb *Fabric) convergenceTime() time.Duration {
	var worst time.Duration
	for _, start := range fb.failStarts {
		for _, t := range fb.deliveryTimes {
			if t >= start {
				if gap := t - start; gap > worst {
					worst = gap
				}
				break
			}
		}
	}
	return worst
}
