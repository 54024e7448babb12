// Package testbed assembles the paper's experimental platform (Fig. 1) in
// simulation: Host1 and Host2 attached to the software switch by 100 Mbps
// links, the switch attached to the controller by a control link, tcpdump
// sniffers on the control channel, and pktgen-style workloads replayed from
// a schedule. One Run produces every metric the paper defines in §III.B.
//
// A Testbed (like the sim kernel it wraps) is confined to one goroutine,
// but independent instances share no mutable state: experiments may
// assemble and run one testbed per goroutine concurrently.
package testbed

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"sdnbuffer/internal/capture"
	"sdnbuffer/internal/chaos"
	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/core"
	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/telemetry"
)

// Port numbers of the Fig. 1 topology.
const (
	PortHost1 uint16 = 1
	PortHost2 uint16 = 2
)

// Config describes one testbed instance.
type Config struct {
	// Seed drives the deterministic kernel.
	Seed int64
	// HostLinkMbps is the host-switch link bandwidth (paper: 100 Mbps).
	HostLinkMbps float64
	// HostLinkPropagation is the host-switch one-way latency.
	HostLinkPropagation time.Duration
	// ControlLinkMbps is the switch-controller link bandwidth.
	ControlLinkMbps float64
	// ControlLinkPropagation is the switch-controller one-way latency.
	ControlLinkPropagation time.Duration
	// Switch is the switch resource model (zero value: DefaultSimConfig
	// with the Datapath left as provided).
	Switch switchd.SimConfig
	// Controller is the controller resource model.
	Controller controller.SimConfig
	// ControlLossRate drops each control message independently with this
	// probability (both directions). The paper's re-request timer
	// (Algorithm 1 line 12) exists exactly for this failure mode.
	ControlLossRate float64
	// Chaos layers a fault plan over the control path: link impairments on
	// both control directions, controller-side stall/drop/crash windows, and
	// switch-visible outage windows that flip the datapath into its fail
	// mode. Nil means no injected faults. A plan with zero loss leaves
	// ControlLossRate in force (the impairment merge rule), so outage or
	// reorder scenarios compose with the legacy loss knob.
	Chaos *chaos.Plan
	// Forwarder configures the reactive forwarding app. When Routes is
	// empty, the Fig. 1 default is installed: 10.0.0.0/24 via Host2's port,
	// 10.1.0.0/16 (the forged pktgen sources) via Host1's port.
	Forwarder controller.ForwarderConfig
	// Drain bounds how long the run may continue after the last emission to
	// let in-flight work finish (default 2s of virtual time).
	Drain time.Duration
	// Telemetry, when non-nil, wires a packet-lifecycle recorder through the
	// platform (switch, buffer mechanism, controller) and enables the
	// process-wide telemetry gate. Recording is purely observational — it
	// schedules no kernel events and draws no randomness — so results and
	// event order are identical with or without it.
	Telemetry *telemetry.Config
}

// DefaultConfig returns the paper's platform parameters with the given
// buffer setup.
func DefaultConfig(buffer openflow.FlowBufferConfig, bufferCapacity int) Config {
	sw := switchd.DefaultSimConfig()
	sw.Datapath = switchd.Config{
		DatapathID:     1,
		NumPorts:       2,
		Buffer:         buffer,
		BufferCapacity: bufferCapacity,
	}
	return Config{
		Seed:                   1,
		HostLinkMbps:           100,
		HostLinkPropagation:    20 * time.Microsecond,
		ControlLinkMbps:        100,
		ControlLinkPropagation: 500 * time.Microsecond,
		Switch:                 sw,
		Controller:             controller.DefaultSimConfig(),
	}
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.HostLinkMbps <= 0 || out.ControlLinkMbps <= 0 {
		return out, fmt.Errorf("testbed: link bandwidths must be positive")
	}
	if out.Drain == 0 {
		out.Drain = 2 * time.Second
	}
	if len(out.Forwarder.Routes) == 0 {
		out.Forwarder.Routes = []controller.Route{
			{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: PortHost2},
			{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Port: PortHost1},
		}
	}
	return out, nil
}

// Result carries the paper's §III.B metrics for one run.
type Result struct {
	// Elapsed is the measurement window (virtual time from start to
	// quiescence).
	Elapsed time.Duration
	// SendingWindow is the nominal emission span of the workload.
	SendingWindow time.Duration

	// CtrlLoadToControllerMbps is Fig. 2(a)/9(a): packet_in traffic.
	CtrlLoadToControllerMbps float64
	// CtrlLoadToSwitchMbps is Fig. 2(b)/9(b): flow_mod + packet_out traffic.
	CtrlLoadToSwitchMbps float64
	// ControllerUsagePercent is Fig. 3/10.
	ControllerUsagePercent float64
	// SwitchUsagePercent is Fig. 4/11.
	SwitchUsagePercent float64
	// FlowSetupDelay (seconds) is Fig. 5/12(a): first packet in → first
	// packet out, per flow.
	FlowSetupDelay metrics.Summary
	// ControllerDelay (seconds) is Fig. 6: packet_in out → first response
	// in, per request, measured at the switch.
	ControllerDelay metrics.Summary
	// SwitchDelayMean (seconds) is Fig. 7: the paper defines it as the
	// difference between the flow setup delay and the controller delay.
	SwitchDelayMean float64
	// FlowForwardingDelay (seconds) is Fig. 12(b): first packet in → last
	// packet of the flow out, per flow.
	FlowForwardingDelay metrics.Summary
	// BufferOccupancyMean / Max are Fig. 8/13: buffer units in use.
	BufferOccupancyMean float64
	BufferOccupancyMax  float64

	// Bookkeeping for verification.
	PacketIns       int64
	FlowMods        int64
	PacketOuts      int64
	Rerequests      uint64
	BufferFallbacks uint64
	FramesSent      int
	FramesDelivered int64
	FlowsObserved   int

	// Resilience bookkeeping (all zero on a healthy run).
	//
	// Giveups counts flows whose re-request budget ran out (the hardened
	// mechanism released their buffer and fell back to full-packet
	// packet_ins). BufferUnitsLeaked is the pool occupancy at quiescence —
	// the acceptance criterion demands zero. DupEmissions counts workload
	// frames the switch emitted more than once; OrderViolations counts
	// emissions whose per-flow sequence number went backwards.
	Giveups           uint64
	BufferUnitsLeaked int
	DupEmissions      int64
	OrderViolations   int64
	// StandaloneForwards / ControlDownMisses mirror the datapath fail-mode
	// counters; CtrlStalled/Dropped/Crashed mirror the chaos injector.
	StandaloneForwards uint64
	ControlDownMisses  uint64
	CtrlStalled        int64
	CtrlDropped        int64
	CtrlCrashed        int64

	// Byte fields mirror the pool's byte accounting; BufferBytesLeaked is
	// the pool's byte occupancy at quiescence and must be zero.
	BufferBytesHighWater uint64
	BufferRejectedBytes  uint64
	BufferBytesLeaked    int64
}

// frameIdent identifies a workload frame by flow key and IP id (pktgen sets
// the IP id to the per-flow sequence number).
type frameIdent struct {
	key  packet.FlowKey
	ipid uint16
}

type flowTrack struct {
	enterFirst time.Duration
	haveEnter  bool
	leaveFirst time.Duration
	haveLeave  bool
	leaveLast  time.Duration
	leaves     int
	lastSeq    int // highest per-flow sequence (IP id) emitted; -1 before any
}

// Testbed is one assembled platform instance.
type Testbed struct {
	cfg    Config
	kernel *sim.Kernel
	sw     *switchd.SimSwitch
	ctl    *controller.SimController
	fwd    *controller.ReactiveForwarder
	chans  *capture.ControlChannel

	h1ToSw *netem.Link
	swToH1 *netem.Link
	h2ToSw *netem.Link
	swToH2 *netem.Link

	inj *chaos.Injector // nil without controller faults

	index     map[frameIdent]int // frame -> flow id
	flows     map[int]*flowTrack
	emitted   map[frameIdent]int // transmit-tap emission counts
	delivered int64
	dups      int64
	misorders int64

	tel *telemetry.Recorder // nil unless Config.Telemetry is set
}

// New assembles a testbed.
func New(cfg Config) (*Testbed, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := sim.New(cfg.Seed)

	if cfg.Switch.CPUCores == 0 { // zero value: fill in the calibrated model
		dp := cfg.Switch.Datapath
		cfg.Switch = switchd.DefaultSimConfig()
		cfg.Switch.Datapath = dp
	}
	if cfg.Controller.CPUCores == 0 {
		cfg.Controller = controller.DefaultSimConfig()
	}

	sw, err := switchd.NewSimSwitch(k, cfg.Switch)
	if err != nil {
		return nil, fmt.Errorf("testbed: building switch: %w", err)
	}
	fwd, err := controller.NewReactiveForwarder(cfg.Forwarder)
	if err != nil {
		return nil, fmt.Errorf("testbed: building forwarder: %w", err)
	}
	ctl, err := controller.NewSimController(k, cfg.Controller, fwd)
	if err != nil {
		return nil, fmt.Errorf("testbed: building controller: %w", err)
	}

	mkLink := func(name string, mbps float64, prop time.Duration) (*netem.Link, error) {
		l, err := netem.NewLink(k, name, mbps, prop)
		if err != nil {
			return nil, fmt.Errorf("testbed: link %s: %w", name, err)
		}
		return l, nil
	}
	tb := &Testbed{
		cfg:     cfg,
		kernel:  k,
		sw:      sw,
		ctl:     ctl,
		fwd:     fwd,
		index:   make(map[frameIdent]int),
		flows:   make(map[int]*flowTrack),
		emitted: make(map[frameIdent]int),
	}
	if cfg.Telemetry != nil {
		tb.tel = telemetry.NewRecorder(*cfg.Telemetry)
		telemetry.SetEnabled(true)
		sw.SetTelemetry(tb.tel)
		ctl.SetTelemetry(tb.tel)
	}
	if tb.h1ToSw, err = mkLink("h1->sw", cfg.HostLinkMbps, cfg.HostLinkPropagation); err != nil {
		return nil, err
	}
	if tb.swToH1, err = mkLink("sw->h1", cfg.HostLinkMbps, cfg.HostLinkPropagation); err != nil {
		return nil, err
	}
	if tb.h2ToSw, err = mkLink("h2->sw", cfg.HostLinkMbps, cfg.HostLinkPropagation); err != nil {
		return nil, err
	}
	if tb.swToH2, err = mkLink("sw->h2", cfg.HostLinkMbps, cfg.HostLinkPropagation); err != nil {
		return nil, err
	}
	ctrlUp, err := mkLink("sw->ctl", cfg.ControlLinkMbps, cfg.ControlLinkPropagation)
	if err != nil {
		return nil, err
	}
	ctrlDown, err := mkLink("ctl->sw", cfg.ControlLinkMbps, cfg.ControlLinkPropagation)
	if err != nil {
		return nil, err
	}
	if cfg.ControlLossRate > 0 {
		if err := ctrlUp.SetLossRate(cfg.ControlLossRate); err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
		if err := ctrlDown.SetLossRate(cfg.ControlLossRate); err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
		up, down := cfg.Chaos.ControlUp, cfg.Chaos.ControlDown
		if len(cfg.Chaos.SwitchOutages) > 0 {
			// Blank both control links over switch-outage windows so no
			// message crosses while the datapath sits in its fail mode.
			up.Outages = append(append([]netem.Window(nil), up.Outages...), cfg.Chaos.SwitchOutages...)
			down.Outages = append(append([]netem.Window(nil), down.Outages...), cfg.Chaos.SwitchOutages...)
		}
		if up.Enabled() {
			if err := ctrlUp.SetImpairment(up); err != nil {
				return nil, fmt.Errorf("testbed: control-up impairment: %w", err)
			}
		}
		if down.Enabled() {
			if err := ctrlDown.SetImpairment(down); err != nil {
				return nil, fmt.Errorf("testbed: control-down impairment: %w", err)
			}
		}
		for _, w := range cfg.Chaos.SwitchOutages {
			w := w
			k.At(w.Start, func() { sw.SetControlDown(true) })
			k.At(w.End, func() { sw.SetControlDown(false) })
		}
		if cfg.Chaos.Controller.Enabled() {
			tb.inj = chaos.NewInjector(k, cfg.Chaos.Controller, nil)
		}
	}
	tb.chans = capture.NewControlChannel(ctrlUp, ctrlDown)

	// deliverToController applies the controller-side fault injector (when
	// configured) at the point a control message would reach the controller.
	deliverToController := func(msg []byte) func() {
		deliver := func() { ctl.Deliver(msg) }
		if tb.inj != nil {
			return tb.inj.Wrap(deliver)
		}
		return deliver
	}

	sw.SetControlSender(func(msg []byte) {
		ctrlUp.Send(msg, deliverToController(msg))
	})
	ctl.SetSwitchSender(func(msg []byte) {
		ctrlDown.Send(msg, func() { sw.DeliverControl(msg) })
	})
	sw.SetTransmit(tb.onSwitchTransmit)
	return tb, nil
}

// Kernel exposes the event kernel (for composing extra scenario events).
func (tb *Testbed) Kernel() *sim.Kernel { return tb.kernel }

// Switch exposes the simulated switch.
func (tb *Testbed) Switch() *switchd.SimSwitch { return tb.sw }

// Controller exposes the simulated controller.
func (tb *Testbed) Controller() *controller.SimController { return tb.ctl }

// Capture exposes the switch-side control-channel sniffers.
func (tb *Testbed) Capture() *capture.ControlChannel { return tb.chans }

// Telemetry exposes the packet-lifecycle recorder (nil unless
// Config.Telemetry was set). After Run, the recorder holds the span ring
// and the flushed flow records.
func (tb *Testbed) Telemetry() *telemetry.Recorder { return tb.tel }

// Injector exposes the controller-side fault injector (nil unless the chaos
// plan configures controller faults).
func (tb *Testbed) Injector() *chaos.Injector { return tb.inj }

// onSwitchTransmit observes every frame leaving the switch and forwards it
// onto the proper egress link. The tap doubles as the exactly-once-in-order
// oracle for the resilience runs: pktgen stamps each frame's IP id with its
// 0-based per-flow sequence number, so a repeated ident is a duplicate
// emission and a sequence number below the flow's high-water mark is an
// ordering violation.
func (tb *Testbed) onSwitchTransmit(port uint16, frame []byte) {
	now := tb.kernel.Now()
	if ident, id, ok := tb.identify(frame); ok {
		tb.emitted[ident]++
		if tb.emitted[ident] > 1 {
			tb.dups++
		}
		tr := tb.flows[id]
		if tr != nil && tr.haveEnter {
			if seq := int(ident.ipid); seq < tr.lastSeq {
				tb.misorders++
			} else {
				tr.lastSeq = seq
			}
			if !tr.haveLeave {
				tr.leaveFirst = now
				tr.haveLeave = true
				if tb.tel != nil {
					// The paper's flow setup delay, as a span: the flow's first
					// packet entering the platform to its first packet leaving.
					tb.tel.Span(telemetry.KindFlowSetup, tr.enterFirst, now,
						telemetry.HashKey(ident.key), uint32(id), uint32(len(frame)))
				}
			}
			if now > tr.leaveLast {
				tr.leaveLast = now
			}
			tr.leaves++
		}
	}
	switch port {
	case PortHost1:
		tb.swToH1.Send(frame, func() { tb.delivered++ })
	case PortHost2:
		tb.swToH2.Send(frame, func() { tb.delivered++ })
	}
}

// identify maps a frame to its workload flow id.
func (tb *Testbed) identify(frame []byte) (frameIdent, int, bool) {
	f, err := packet.ParseHeaders(frame)
	if err != nil {
		return frameIdent{}, 0, false
	}
	ident := frameIdent{key: f.Key(), ipid: f.IPID}
	id, ok := tb.index[ident]
	return ident, id, ok
}

// Run replays a schedule from Host1 and runs the platform to quiescence,
// returning the metric set. Run may be called once per Testbed.
func (tb *Testbed) Run(sched pktgen.Schedule) (*Result, error) {
	if len(sched) == 0 {
		return nil, fmt.Errorf("testbed: empty schedule")
	}
	for _, e := range sched {
		f, err := packet.ParseHeaders(e.Frame)
		if err != nil {
			return nil, fmt.Errorf("testbed: schedule frame unparseable: %w", err)
		}
		tb.index[frameIdent{key: f.Key(), ipid: f.IPID}] = e.FlowID
		if _, ok := tb.flows[e.FlowID]; !ok {
			tb.flows[e.FlowID] = &flowTrack{lastSeq: -1}
		}
	}
	for _, e := range sched {
		e := e
		tb.kernel.At(e.At, func() {
			tb.h1ToSw.Send(e.Frame, func() {
				now := tb.kernel.Now()
				if _, id, ok := tb.identify(e.Frame); ok {
					tr := tb.flows[id]
					if !tr.haveEnter {
						tr.enterFirst = now
						tr.haveEnter = true
					}
				}
				tb.sw.Ingest(PortHost1, e.Frame)
			})
		})
	}
	// Run to quiescence: the kernel drains naturally once every packet has
	// been forwarded and every timer disarmed. The deadline only bounds
	// pathological runs (e.g. a flow whose re-request timer is never
	// answered re-arms forever).
	deadline := sched.Duration() + tb.cfg.Drain
	tb.kernel.Drain(deadline)
	tb.tel.Finish(tb.kernel.Now()) // flush live flow records (nil-safe)
	return tb.collect(sched), nil
}

func (tb *Testbed) collect(sched pktgen.Schedule) *Result {
	now := tb.kernel.Now()
	res := &Result{
		Elapsed:       now,
		SendingWindow: sched.Duration(),
		FramesSent:    len(sched),
	}
	res.CtrlLoadToControllerMbps = tb.chans.ToController.LoadMbps(now)
	res.CtrlLoadToSwitchMbps = tb.chans.ToSwitch.LoadMbps(now)
	res.ControllerUsagePercent = tb.ctl.CPUUtilizationPercent()
	res.SwitchUsagePercent = tb.sw.CPUUtilizationPercent()
	res.ControllerDelay = *tb.sw.ControllerDelay()

	// Iterate flows in id order: Welford summaries are order-sensitive in
	// the last bits, and determinism across runs is a hard guarantee.
	ids := make([]int, 0, len(tb.flows))
	for id := range tb.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tr := tb.flows[id]
		if !tr.haveEnter {
			continue
		}
		res.FlowsObserved++
		if tr.haveLeave {
			res.FlowSetupDelay.Observe((tr.leaveFirst - tr.enterFirst).Seconds())
			res.FlowForwardingDelay.Observe((tr.leaveLast - tr.enterFirst).Seconds())
		}
	}
	res.SwitchDelayMean = res.FlowSetupDelay.Mean() - res.ControllerDelay.Mean()
	if res.SwitchDelayMean < 0 {
		res.SwitchDelayMean = 0
	}

	mech := tb.sw.Datapath().Mechanism()
	res.BufferOccupancyMean = mech.OccupancyMean(now)
	res.BufferOccupancyMax = mech.OccupancyMax()
	st := mech.Stats(now)
	res.Rerequests = st.Rerequests
	res.BufferFallbacks = st.DroppedNoBuffer
	res.Giveups = st.Giveups
	if pm, ok := mech.(interface{ Pool() *core.Pool }); ok {
		res.BufferUnitsLeaked = pm.Pool().Live()
		res.BufferBytesHighWater = uint64(pm.Pool().BytesHighWater())
		res.BufferRejectedBytes = pm.Pool().RejectedBytes()
		res.BufferBytesLeaked = pm.Pool().BytesInUse()
	}
	res.DupEmissions = tb.dups
	res.OrderViolations = tb.misorders
	res.StandaloneForwards, res.ControlDownMisses = tb.sw.Datapath().FailStats()
	if tb.inj != nil {
		res.CtrlStalled = tb.inj.Stalled
		res.CtrlDropped = tb.inj.Dropped
		res.CtrlCrashed = tb.inj.Crashed
	}

	res.PacketIns, _ = tb.chans.ToController.ByType(openflow.TypePacketIn)
	res.FlowMods, _ = tb.chans.ToSwitch.ByType(openflow.TypeFlowMod)
	res.PacketOuts, _ = tb.chans.ToSwitch.ByType(openflow.TypePacketOut)
	res.FramesDelivered = tb.delivered
	return res
}
