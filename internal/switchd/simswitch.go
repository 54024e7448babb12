package switchd

import (
	"errors"
	"fmt"
	"time"

	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/telemetry"
)

// SimConfig is the resource model of the simulated switch. The defaults are
// calibrated so the emulated testbed reproduces the shapes of the paper's
// figures (see DESIGN.md §4); every knob is a real, physically meaningful
// quantity.
type SimConfig struct {
	Datapath Config

	// CPUCores is the switch host's core count (paper Table I: quad-core).
	CPUCores int
	// PerPacketCost is the CPU demand to receive, look up and forward one
	// frame through the software datapath.
	PerPacketCost time.Duration
	// WakeupCost is the fixed cost of waking the datapath thread for a
	// batch of packets; BatchWindow is how long one wakeup's batch lasts.
	// Together they make per-packet cost amortize at high rates — the
	// concave switch-usage curve of the paper's Fig. 4.
	WakeupCost  time.Duration
	BatchWindow time.Duration
	// MissCost is the extra CPU demand to build a packet_in.
	MissCost time.Duration
	// ControlOpCost is the CPU demand to execute one flow_mod or packet_out.
	ControlOpCost time.Duration
	// PerControlByte is CPU demand per byte of control message handled —
	// what makes full-packet messages expensive.
	PerControlByte time.Duration
	// BufferOpCost is the CPU demand per buffer store or release operation.
	BufferOpCost time.Duration
	// BusMbps is the bandwidth of the channel between the forwarding plane
	// and the switch CPU (the ASIC-CPU bus of a hardware switch, the
	// kernel-userspace upcall channel of OVS). It is a single shared
	// resource: packet_in traffic going up competes with flow_mod and
	// packet_out traffic coming down, and with no-buffer operation its
	// saturation is what blows up the paper's delay curves past ~75 Mbps.
	BusMbps float64
	// BusPropagation is the fixed latency of that channel.
	BusPropagation time.Duration
	// ReclaimDelay is the lazy buffer-slot reclamation delay: how long a
	// released unit's slot stays occupied before the switch's deferred
	// cleanup frees it. This models the batched buffer expiry of a real
	// software switch and produces the occupancy levels of Figs. 8/13.
	ReclaimDelay time.Duration
}

// DefaultSimConfig returns the calibrated resource model.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		CPUCores:       4,
		PerPacketCost:  20 * time.Microsecond,
		WakeupCost:     150 * time.Microsecond,
		BatchWindow:    time.Millisecond,
		MissCost:       30 * time.Microsecond,
		ControlOpCost:  40 * time.Microsecond,
		PerControlByte: 10 * time.Nanosecond,
		BufferOpCost:   25 * time.Microsecond,
		BusMbps:        165,
		BusPropagation: 50 * time.Microsecond,
		ReclaimDelay:   3500 * time.Microsecond,
	}
}

func (c *SimConfig) validate() error {
	if c.CPUCores <= 0 {
		return fmt.Errorf("switchd: CPU cores must be positive, got %d", c.CPUCores)
	}
	if c.BusMbps <= 0 {
		return fmt.Errorf("switchd: bus bandwidth must be positive, got %g", c.BusMbps)
	}
	for _, d := range []time.Duration{
		c.PerPacketCost, c.WakeupCost, c.BatchWindow, c.MissCost,
		c.ControlOpCost, c.PerControlByte, c.BufferOpCost, c.BusPropagation, c.ReclaimDelay,
	} {
		if d < 0 {
			return fmt.Errorf("switchd: negative cost in sim config")
		}
	}
	return nil
}

// SimSwitch drives a Datapath on the discrete-event kernel with the
// SimConfig resource model: a multi-core CPU, a bandwidth-limited
// plane-to-CPU bus, batched wakeups and buffer-operation costs.
type SimSwitch struct {
	kernel *sim.Kernel
	cfg    SimConfig
	dp     *Datapath

	cpu *sim.Resource
	bus *netem.Link // shared forwarding-plane <-> CPU channel

	sendCtrl func(msg []byte)
	transmit func(port uint16, frame []byte)

	nextXid    uint32
	sentAt     map[uint32]time.Duration
	ctrlDelay  metrics.Summary
	nextWakeup time.Duration

	// timer keeps the datapath's deadlines; wake is its one pending kernel
	// event, and onWake the handler it runs (bound once, not per arm).
	timer  deadlineTimer
	wake   *sim.Event
	onWake func()

	portSeq  map[uint16]uint64 // per-port arrival sequence assigned at ingest
	portNext map[uint16]uint64 // next per-port sequence the datapath may pick up
	portHeld map[uint16]map[uint64]func()

	parseErrors uint64
	ctrlErrors  uint64

	// Crash epoch: bumped by Crash so that CPU/bus work submitted before the
	// power loss is discarded when it completes — the chassis that was doing
	// it no longer exists. Ingress and control delivery while crashed are
	// dropped at the boundary and counted.
	epoch         uint64
	crashRxDrops  uint64
	crashCtlDrops uint64

	// tel is nil unless telemetry is wired (SetTelemetry). Every hook is
	// guarded on the nil check; recording never schedules kernel events, so
	// event order is identical with telemetry on or off (DESIGN.md §12).
	tel *telemetry.Recorder
}

// NewSimSwitch builds the simulated switch on the kernel.
func NewSimSwitch(k *sim.Kernel, cfg SimConfig) (*SimSwitch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dp, err := NewDatapath(cfg.Datapath)
	if err != nil {
		return nil, err
	}
	bus, err := netem.NewLink(k, "bus", cfg.BusMbps, cfg.BusPropagation)
	if err != nil {
		return nil, err
	}
	s := &SimSwitch{
		kernel:   k,
		cfg:      cfg,
		dp:       dp,
		cpu:      sim.NewResource(k, "switch-cpu", cfg.CPUCores),
		bus:      bus,
		sentAt:   make(map[uint32]time.Duration),
		portSeq:  make(map[uint16]uint64),
		portNext: make(map[uint16]uint64),
		portHeld: make(map[uint16]map[uint64]func()),
	}
	s.timer = deadlineTimer{dp: dp, set: s.setWake, stop: s.cancelWake}
	s.onWake = s.fireTimer
	dp.setReclaimDelay(cfg.ReclaimDelay)
	return s, nil
}

// Datapath exposes the protocol core (flow table, mechanism, counters).
func (s *SimSwitch) Datapath() *Datapath { return s.dp }

// SetTelemetry wires the packet-lifecycle recorder through the switch: the
// sim driver emits ingress/packet_in/controller-RTT/control-op/egress
// spans, the datapath and mechanism emit lookup and buffer spans, and the
// switch CPU reports each job's service interval via the sim resource trace
// hook. nil disables (the default).
func (s *SimSwitch) SetTelemetry(rec *telemetry.Recorder) {
	s.tel = rec
	s.dp.SetTelemetry(rec)
	if rec == nil {
		s.cpu.SetTraceFunc(nil)
		return
	}
	s.cpu.SetTraceFunc(func(_, started, finished time.Duration) {
		s.tel.Span(telemetry.KindSwitchCPU, started, finished, 0, 0, 0)
	})
}

// SetControlSender wires the switch's uplink: fn is called with each
// encoded control message to put on the control link.
func (s *SimSwitch) SetControlSender(fn func(msg []byte)) { s.sendCtrl = fn }

// SetControlDown flips the switch's datapath in or out of its configured
// fail mode; the testbed calls this at outage-window boundaries.
func (s *SimSwitch) SetControlDown(down bool) { s.dp.SetControlDown(down) }

// SetTransmit wires the data plane egress: fn is called for every frame the
// switch puts on a port.
func (s *SimSwitch) SetTransmit(fn func(port uint16, frame []byte)) { s.transmit = fn }

// Ingest is called when a frame arrives on a data port (the ingress link's
// delivery callback).
func (s *SimSwitch) Ingest(inPort uint16, frame []byte) {
	if s.dp.crashed {
		s.crashRxDrops++
		return
	}
	now := s.kernel.Now()
	cost := s.cfg.PerPacketCost
	if now >= s.nextWakeup {
		cost += s.cfg.WakeupCost
		s.nextWakeup = now + s.cfg.BatchWindow
	}
	seq := s.portSeq[inPort]
	s.portSeq[inPort] = seq + 1
	epoch := s.epoch
	s.cpu.Submit(cost, func() {
		if s.epoch != epoch {
			// The frame was in the chassis pipeline when the power died: as
			// gone as one dropped at the boundary, and named the same way so
			// the fabric's ledger closes.
			s.crashRxDrops++
			return
		}
		s.admitInOrder(inPort, seq, func() { s.processFrame(now, inPort, frame) })
	})
}

// admitInOrder hands frame-processing completions to the datapath in per-port
// arrival order. The CPU model runs jobs on parallel cores with unequal
// demands — a batch's first packet also pays the wakeup cost — so a later
// packet's job can finish first. A real datapath drains one port's RX queue
// in order: the wakeup latency delays the whole poll batch, not only the
// packet that triggered it. An out-of-order completion is therefore held (at
// no extra CPU cost) until every earlier packet on the same port has been
// processed; when completions are already in order this is a straight
// pass-through with identical timing.
func (s *SimSwitch) admitInOrder(inPort uint16, seq uint64, fn func()) {
	if seq != s.portNext[inPort] {
		held := s.portHeld[inPort]
		if held == nil {
			held = make(map[uint64]func())
			s.portHeld[inPort] = held
		}
		held[seq] = fn
		return
	}
	fn()
	s.portNext[inPort] = seq + 1
	held := s.portHeld[inPort]
	for {
		next, ok := held[s.portNext[inPort]]
		if !ok {
			return
		}
		delete(held, s.portNext[inPort])
		next()
		s.portNext[inPort]++
	}
}

func (s *SimSwitch) processFrame(arrived time.Duration, inPort uint16, frame []byte) {
	now := s.kernel.Now()
	if s.tel != nil {
		// Ingress span: port arrival to datapath pickup — switch CPU queueing
		// plus the per-packet (and any wakeup) service demand.
		s.tel.Span(telemetry.KindIngress, arrived, now, 0, uint32(inPort), uint32(len(frame)))
	}
	res, err := s.dp.HandleFrame(now, inPort, frame)
	if err != nil {
		s.parseErrors++
		return
	}
	for _, o := range res.Outputs {
		s.emit(o)
	}
	if res.Miss == nil {
		return // a hit does no timer work
	}
	extra := time.Duration(0)
	if res.Miss.Buffered {
		extra += s.cfg.BufferOpCost
	}
	if res.Miss.PacketIn != nil {
		s.sendPacketIn(res.Miss.PacketIn, extra)
	} else if extra > 0 {
		s.cpu.Submit(extra, nil)
	}
	s.timer.arm()
}

// sendPacketIn charges the switch CPU for building a packet_in, plus extra
// (a buffer store), and then ships it with a fresh xid.
func (s *SimSwitch) sendPacketIn(pi *openflow.PacketIn, extra time.Duration) {
	s.nextXid++
	xid := s.nextXid
	msg, err := openflow.Encode(pi, xid)
	if err != nil {
		s.ctrlErrors++
		return
	}
	cost := s.cfg.MissCost + extra + time.Duration(len(msg))*s.cfg.PerControlByte
	epoch := s.epoch
	s.cpu.Submit(cost, func() {
		if s.epoch != epoch {
			return
		}
		s.shipControl(xid, msg)
	})
}

// shipControl moves a control message over the bus and onto the control
// link, timestamping its departure for controller-delay measurement.
func (s *SimSwitch) shipControl(xid uint32, msg []byte) {
	shipped := s.kernel.Now()
	epoch := s.epoch
	s.bus.Send(msg, func() {
		if s.epoch != epoch {
			return
		}
		now := s.kernel.Now()
		if xid != 0 {
			s.sentAt[xid] = now
			if s.tel != nil {
				// packet_in span: CPU handoff to control-link departure — the
				// plane-to-CPU bus transfer the no-buffer mechanism saturates.
				s.tel.Span(telemetry.KindPacketIn, shipped, now, 0, xid, uint32(len(msg)))
			}
		}
		if s.sendCtrl != nil {
			s.sendCtrl(msg)
		}
	})
}

// DeliverControl is called when a control message arrives from the
// controller (the control link's delivery callback).
func (s *SimSwitch) DeliverControl(msg []byte) {
	if s.dp.crashed {
		s.crashCtlDrops++
		return
	}
	now := s.kernel.Now()
	// Controller delay: packet_in departure to first response arrival,
	// measured at the switch, exactly as the paper does (§III.B).
	if len(msg) >= openflow.HeaderLen {
		t := openflow.MsgType(msg[1])
		if t == openflow.TypeFlowMod || t == openflow.TypePacketOut {
			xid := uint32(msg[4])<<24 | uint32(msg[5])<<16 | uint32(msg[6])<<8 | uint32(msg[7])
			if sent, ok := s.sentAt[xid]; ok {
				s.ctrlDelay.Observe((now - sent).Seconds())
				if s.tel != nil {
					s.tel.Span(telemetry.KindControllerRTT, sent, now, 0, xid, uint32(len(msg)))
				}
				delete(s.sentAt, xid)
			}
		}
	}
	epoch := s.epoch
	s.bus.Send(msg, func() {
		if s.epoch != epoch {
			s.crashCtlDrops++
			return
		}
		cost := s.cfg.ControlOpCost + time.Duration(len(msg))*s.cfg.PerControlByte
		s.cpu.Submit(cost, func() {
			if s.epoch != epoch {
				s.crashCtlDrops++
				return
			}
			s.processControl(msg)
		})
	})
}

func (s *SimSwitch) processControl(msg []byte) {
	m, xid, err := openflow.Decode(msg)
	if err != nil {
		s.ctrlErrors++
		if errors.Is(err, openflow.ErrUnknownType) {
			s.reply(badTypeError(msg), xid)
		}
		return
	}
	if res, err := s.dp.Control(s.kernel.Now(), m, xid); err != nil {
		s.ctrlErrors++
	} else {
		s.finishControl(res, xid)
	}
	// The decoded shell is fully dispatched: the flow table keeps its own
	// reference to the action slice and released frames alias the packet_out
	// data's backing array, neither of which shell recycling touches.
	openflow.ReleaseMessage(m)
	s.timer.arm()
}

// finishControl sends the messages a control message caused, then the
// frames it released: released packets pay the buffer release cost and go
// out the data ports.
func (s *SimSwitch) finishControl(res *ControlResult, xid uint32) {
	for _, m := range res.Msgs {
		s.reply(m, xid)
	}
	if len(res.Outputs) == 0 {
		return
	}
	// Emit released packets now, in the same event that made the rule
	// install visible, and only charge the release cost to the CPU. If the
	// emission were deferred to the cost job's completion, a same-flow frame
	// arriving in the install-to-drain window would match the new rule on
	// another core and overtake its buffered predecessors — breaking the
	// per-flow ordering the buffer mechanism exists to preserve.
	s.cpu.Submit(time.Duration(len(res.Outputs))*s.cfg.BufferOpCost, nil)
	for _, o := range res.Outputs {
		s.emit(o)
	}
}

// reply sends a switch-originated message to the controller via the bus.
func (s *SimSwitch) reply(m openflow.Message, xid uint32) {
	msg, err := openflow.Encode(m, xid)
	if err != nil {
		s.ctrlErrors++
		return
	}
	s.shipControl(0, msg)
}

func (s *SimSwitch) emit(o Output) {
	if s.tel != nil {
		s.tel.Instant(telemetry.KindEgress, s.kernel.Now(), 0, uint32(o.Port), uint32(len(o.Frame)))
	}
	if s.transmit != nil {
		s.transmit(o.Port, o.Frame)
	}
}

// setWake schedules the deadline timer's one kernel event, replacing any
// pending one.
func (s *SimSwitch) setWake(at time.Duration) {
	s.cancelWake()
	s.wake = s.kernel.At(max(at, s.kernel.Now()), s.onWake)
}

func (s *SimSwitch) cancelWake() {
	if s.wake != nil {
		s.kernel.Cancel(s.wake)
		s.wake = nil
	}
}

// fireTimer runs the datapath's due timer work: re-request packet_ins pay
// the packet_in CPU cost, flow_removeds go straight to the bus.
func (s *SimSwitch) fireTimer() {
	s.wake = nil
	rerequests, removed := s.timer.fire(s.kernel.Now())
	for _, pi := range rerequests {
		s.sendPacketIn(pi, 0)
	}
	for _, m := range removed {
		s.reply(m, 0)
	}
	s.timer.arm()
}

// CPUUtilizationPercent reports time-averaged switch CPU usage in percent
// of one core — the paper's "switch usages" metric (Fig. 4 / Fig. 11).
func (s *SimSwitch) CPUUtilizationPercent() float64 { return s.cpu.UtilizationPercent() }

// ControllerDelay reports the distribution of packet_in-to-first-response
// delays measured at the switch, in seconds (Fig. 6).
func (s *SimSwitch) ControllerDelay() *metrics.Summary { return &s.ctrlDelay }

// BusUtilizationPercent reports offered load on the shared plane-CPU bus
// relative to its capacity.
func (s *SimSwitch) BusUtilizationPercent(now time.Duration) float64 {
	return s.bus.UtilizationPercent(now)
}

// Errors reports frames dropped for parse errors and control messages
// dropped for protocol errors.
func (s *SimSwitch) Errors() (parse, control uint64) { return s.parseErrors, s.ctrlErrors }
