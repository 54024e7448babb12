package testbed

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"sdnbuffer/internal/capture"
	"sdnbuffer/internal/chaos"
	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/core"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/tablemgmt"
	"sdnbuffer/internal/telemetry"
	"sdnbuffer/internal/topo"
)

// FabricOptions shapes a multi-switch fabric instance on top of the shared
// per-switch Config.
type FabricOptions struct {
	// Graph is the built topology (required).
	Graph *topo.Graph
	// Shards is the controller count (default 1). Switch i is mastered by
	// controller i mod Shards; with Shards > 1 its backup is the next shard,
	// and a crash window hands the switch over deterministically.
	Shards int
	// Install selects hop-by-hop or whole-path rule installation.
	Install topo.InstallMode
	// SrcHost / DstHost select the workload's endpoints (defaults 0 and 1).
	SrcHost, DstHost int
	// CrashWindows takes each listed controller down over the given windows:
	// control messages to and from it are lost, and switches it masters fail
	// over to their backup shard for the duration.
	CrashWindows map[int][]netem.Window
	// Failures is the data-plane fault schedule (DESIGN.md §16): link-down
	// windows and switch crash windows, injected as ordinary kernel events,
	// one per affected switch. A nil or empty plan leaves the run
	// byte-identical to one without the field.
	Failures *netem.FailurePlan
	// TrackHops records per-hop ingress/egress times for each flow's first
	// packet (schedule sequence 0), feeding the hop-sum oracle and the hop
	// telemetry spans. Leave it off for scale runs.
	TrackHops bool
	// TableMgmt, when non-nil, enables the controller-side flow-table
	// management layer on every shard's PathForwarder: occupancy tracking
	// from flow_removed / table-full feedback plus destination-prefix
	// wildcard aggregation past the configured threshold.
	TableMgmt *tablemgmt.Config
}

func (o FabricOptions) withDefaults() (FabricOptions, error) {
	if o.Graph == nil {
		return o, fmt.Errorf("testbed: fabric needs a topology graph")
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 1 {
		return o, fmt.Errorf("testbed: shard count must be positive, got %d", o.Shards)
	}
	if o.SrcHost == 0 && o.DstHost == 0 {
		o.DstHost = 1
	}
	hosts := len(o.Graph.Hosts())
	if o.SrcHost < 0 || o.SrcHost >= hosts || o.DstHost < 0 || o.DstHost >= hosts {
		return o, fmt.Errorf("testbed: host pair (%d, %d) out of range [0, %d)", o.SrcHost, o.DstHost, hosts)
	}
	if o.SrcHost == o.DstHost {
		return o, fmt.Errorf("testbed: src and dst host are both %d", o.SrcHost)
	}
	for c, ws := range o.CrashWindows {
		if c < 0 || c >= o.Shards {
			return o, fmt.Errorf("testbed: crash window for controller %d, have %d shards", c, o.Shards)
		}
		for _, w := range ws {
			if w.Start < 0 || w.End <= w.Start {
				return o, fmt.Errorf("testbed: controller %d crash window [%v, %v) invalid", c, w.Start, w.End)
			}
		}
	}
	if !o.Failures.Empty() {
		if err := o.Failures.Validate(); err != nil {
			return o, fmt.Errorf("testbed: %w", err)
		}
		n := o.Graph.NumSwitches()
		for _, lf := range o.Failures.Links {
			if lf.A >= n || lf.B >= n {
				return o, fmt.Errorf("testbed: failure plan link %d-%d out of range [0, %d)", lf.A, lf.B, n)
			}
			if _, _, ok := o.Graph.EdgePorts(lf.A, lf.B); !ok {
				return o, fmt.Errorf("testbed: failure plan link %d-%d is not an edge of the topology", lf.A, lf.B)
			}
		}
		for _, sf := range o.Failures.Switches {
			if sf.Switch >= n {
				return o, fmt.Errorf("testbed: failure plan switch %d out of range [0, %d)", sf.Switch, n)
			}
		}
	}
	return o, nil
}

// FabricResult extends the paper's metric set with fabric bookkeeping.
type FabricResult struct {
	Result

	// Switches, Shards and PathHops describe the instance: fabric size,
	// controller count, and the workload path's switch-hop length.
	Switches int
	Shards   int
	PathHops int

	// Handoffs counts switch→backup failovers triggered by crash windows;
	// CtlDropped counts control messages lost to a crashed controller.
	Handoffs   int64
	CtlDropped int64
	// Misdelivered counts workload frames emitted toward a host that is not
	// the workload destination (must stay zero: routing is loop-free and the
	// fabric never floods).
	Misdelivered int64
	// Unroutable counts misses the controllers dropped for lack of a route;
	// PathInstalls counts downstream flow_mods pushed by path installation;
	// RemoteSkips counts path hops skipped because another shard masters
	// them (the sharding dilution the sweep measures).
	Unroutable   uint64
	PathInstalls uint64
	RemoteSkips  uint64

	// Survivability metrics (FabricOptions.Failures; all zero without a
	// plan). ReroutedPaths counts (switch, host) next hops changed by
	// routing-table swaps and Blackholes misses for destinations a failure
	// cut off. The drop ledger names every in-window loss: LinkDownDrops are
	// frames destroyed in flight on a dead wire, TxDownDrops transmissions
	// the egress backstop suppressed toward a down port, DeadPortRefusals
	// installs/releases refused for a dead egress, BufDropsDeadPort buffered
	// packets those refusals destroyed, CrashRxDrops frames arriving at a
	// crashed chassis, CrashCtlDrops control messages ditto, and
	// CrashBufPackets/CrashBufBytes what crashes wiped from the buffers.
	// LoopFrames counts switch revisits beyond the table-epoch bound (must
	// stay zero: the flush-and-swap protocol is loop-free). ConvergenceTime
	// is the longest delivery gap opened by any failure-window start, and
	// LastReorderTime when the last order violation was delivered (zero when
	// none) — transient reordering while old-path and new-path frames race
	// is physical, but it must end with the convergence, and
	// OrderViolations must be zero once the fabric has settled.
	ReroutedPaths    uint64
	Blackholes       uint64
	LinkDownDrops    int64
	TxDownDrops      uint64
	DeadPortRefusals uint64
	BufDropsDeadPort uint64
	CrashRxDrops     uint64
	CrashCtlDrops    uint64
	CrashBufPackets  uint64
	CrashBufBytes    uint64
	LoopFrames       int64
	ConvergenceTime  time.Duration
	LastReorderTime  time.Duration

	// Flow-table management (DESIGN.md §17). The rule ledger sums the
	// datapath lifecycle counters across switches: every install must end up
	// active, removed (by reason), or cleared — LedgerGap is the summed
	// imbalance and must be zero. The aggregation counters sum the per-shard
	// tracker stats (all zero when FabricOptions.TableMgmt is nil).
	RuleInstalls     uint64
	RuleReplacements uint64
	RuleRejects      uint64
	RulesCleared     uint64
	RulesActive      uint64
	RemovedIdle      uint64
	RemovedHard      uint64
	RemovedDelete    uint64
	RemovedEvict     uint64
	LedgerGap        int64
	Aggregations     uint64
	RulesCompressed  uint64
	Deaggregations   uint64
	CoveredSkips     uint64
	TableFullErrors  uint64
	FlowRemovedSeen  uint64
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

// hopTrack is the per-hop time record for one tracked frame.
type hopTrack struct {
	enters []time.Duration
	exits  []time.Duration
	seenIn []bool
	seenEx []bool
}

// Fabric is a multi-switch platform instance: the Graph realized as
// simulated switches and links, driven by a sharded control plane running
// the PathForwarder application.
type Fabric struct {
	cfg    Config
	opts   FabricOptions
	g      *topo.Graph
	kernel *sim.Kernel
	sws    []*switchd.SimSwitch
	ctls   []*controller.SimController
	apps   []*topo.PathForwarder
	chans  []*capture.ControlChannel

	dataLinks [][]*netem.Link // [switch][port-1]; nil entries are host ports
	hostUp    []*netem.Link   // host -> attachment switch
	hostDown  []*netem.Link   // attachment switch -> host

	ctlDown    []bool // controller currently crashed
	useBackup  []bool // switch currently failed over to its backup shard
	handoffs   int64
	ctlDropped int64

	injs []*chaos.Injector // per shard; nil without Config.Chaos controller faults

	src        topo.Host   // the workload's source host
	path       []topo.Hop  // the src→dst switch chain
	pathIndex  map[int]int // switch -> position on path
	hops       map[frameIdent]*hopTrack
	firstIdent map[int]frameIdent // flow -> its first packet's identity

	index        map[frameIdent]int
	flows        map[int]*flowTrack
	emitted      map[frameIdent]int
	delivered    int64
	misdelivered int64
	dups         int64
	misorders    int64

	// Survivability state (fabricfail.go), allocated only when the plan is
	// non-empty.
	linkDownDrops int64
	swIngress     []map[frameIdent]int
	visitBound    int
	deliveryTimes []time.Duration
	failStarts    []time.Duration
	lastReorderAt time.Duration

	tel *telemetry.Recorder
}

// NewFabric assembles a fabric. The per-switch Config carries the resource
// models and the chaos plan; the Fig. 1 Testbed is the fabric of one line
// switch. Config.Chaos and FabricOptions.CrashWindows are two separate fault
// models: the plan impairs every control link and stalls, drops or crashes
// messages at every shard, while a crash window takes one shard down and
// fails its switches over to their backup.
func NewFabric(cfg Config, opts FabricOptions) (*Fabric, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var upImp, downImp netem.Impairment
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
		upImp, downImp = cfg.Chaos.ControlUp, cfg.Chaos.ControlDown
		if outs := cfg.Chaos.SwitchOutages; len(outs) > 0 {
			// Blank every control link over switch-outage windows so no
			// message crosses while the datapaths sit in their fail mode.
			upImp.Outages = append(slices.Clip(upImp.Outages), outs...)
			downImp.Outages = append(slices.Clip(downImp.Outages), outs...)
		}
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	g := opts.Graph
	if cfg.Switch.CPUCores == 0 {
		dp := cfg.Switch.Datapath
		cfg.Switch = switchd.DefaultSimConfig()
		cfg.Switch.Datapath = dp
	}
	if cfg.Controller.CPUCores == 0 {
		cfg.Controller = controller.DefaultSimConfig()
	}

	k := sim.New(cfg.Seed)
	fb := &Fabric{
		cfg:       cfg,
		opts:      opts,
		g:         g,
		kernel:    k,
		ctlDown:   make([]bool, opts.Shards),
		useBackup: make([]bool, g.NumSwitches()),
		index:     make(map[frameIdent]int),
		flows:     make(map[int]*flowTrack),
		emitted:   make(map[frameIdent]int),
	}

	if cfg.Telemetry != nil {
		fb.tel = telemetry.NewRecorder(*cfg.Telemetry)
		telemetry.SetEnabled(true)
	}
	fb.src = g.Hosts()[opts.SrcHost]
	fb.path, err = g.HostPath(opts.SrcHost, opts.DstHost)
	if err != nil {
		return nil, fmt.Errorf("testbed: fabric workload path: %w", err)
	}
	fb.pathIndex = make(map[int]int, len(fb.path))
	for pos, hop := range fb.path {
		fb.pathIndex[hop.Switch] = pos
	}
	if opts.TrackHops {
		fb.hops = make(map[frameIdent]*hopTrack)
		fb.firstIdent = make(map[int]frameIdent)
	}

	mkLink := func(name string, mbps float64, prop time.Duration) (*netem.Link, error) {
		l, err := netem.NewLink(k, name, mbps, prop)
		if err != nil {
			return nil, fmt.Errorf("testbed: link %s: %w", name, err)
		}
		return l, nil
	}

	// Control plane: one PathForwarder per shard over the shared graph.
	for j := 0; j < opts.Shards; j++ {
		app := topo.NewPathForwarder(g, opts.Install, cfg.Forwarder)
		if opts.TableMgmt != nil {
			if err := app.EnableTableMgmt(*opts.TableMgmt); err != nil {
				return nil, fmt.Errorf("testbed: controller %d: %w", j, err)
			}
		}
		ctl, err := controller.NewSimController(k, cfg.Controller, app)
		if err != nil {
			return nil, fmt.Errorf("testbed: building controller %d: %w", j, err)
		}
		if fb.tel != nil {
			ctl.SetTelemetry(fb.tel)
		}
		fb.apps = append(fb.apps, app)
		fb.ctls = append(fb.ctls, ctl)
	}

	// attach wires switch i to controller j and returns the uplink entry
	// point (what the switch's control sender calls for this role). A
	// crashed controller loses messages in both directions; the shard's
	// chaos injector, when configured, sits at the uplink's arrival.
	attach := func(i, j int, sw *switchd.SimSwitch, role string, standby bool) (func(msg []byte), error) {
		up, err := mkLink(fmt.Sprintf("sw%d->ctl%d(%s)", i, j, role), cfg.ControlLinkMbps, cfg.ControlLinkPropagation)
		if err != nil {
			return nil, err
		}
		down, err := mkLink(fmt.Sprintf("ctl%d->sw%d(%s)", j, i, role), cfg.ControlLinkMbps, cfg.ControlLinkPropagation)
		if err != nil {
			return nil, err
		}
		if cfg.ControlLossRate > 0 {
			if err := up.SetLossRate(cfg.ControlLossRate); err != nil {
				return nil, err
			}
			if err := down.SetLossRate(cfg.ControlLossRate); err != nil {
				return nil, err
			}
		}
		if upImp.Enabled() {
			if err := up.SetImpairment(upImp); err != nil {
				return nil, fmt.Errorf("testbed: control-up impairment: %w", err)
			}
		}
		if downImp.Enabled() {
			if err := down.SetImpairment(downImp); err != nil {
				return nil, fmt.Errorf("testbed: control-down impairment: %w", err)
			}
		}
		fb.chans = append(fb.chans, capture.NewControlChannel(up, down))
		conn, deliver := fb.ctls[j].AttachConn(func(msg []byte) {
			if fb.ctlDown[j] {
				fb.ctlDropped++
				return
			}
			down.Send(msg, func() { sw.DeliverControl(msg) })
		})
		if standby {
			fb.apps[j].RegisterStandbyConn(conn, i)
		} else {
			fb.apps[j].RegisterConn(conn, i)
		}
		arrive := func(msg []byte) {
			if fb.ctlDown[j] {
				fb.ctlDropped++
				return
			}
			deliver(msg)
		}
		return func(msg []byte) {
			if fb.injs != nil {
				up.Send(msg, fb.injs[j].Wrap(func() { arrive(msg) }))
				return
			}
			up.Send(msg, func() { arrive(msg) })
		}, nil
	}

	// Switches, each wired to its master shard (and backup, when sharded).
	for i := 0; i < g.NumSwitches(); i++ {
		swCfg := cfg.Switch
		swCfg.Datapath.DatapathID = uint64(i + 1)
		swCfg.Datapath.NumPorts = g.NumPorts(i)
		sw, err := switchd.NewSimSwitch(k, swCfg)
		if err != nil {
			return nil, fmt.Errorf("testbed: building switch %d: %w", i, err)
		}
		if fb.tel != nil {
			sw.SetTelemetry(fb.tel)
		}
		master := i % opts.Shards
		sendMaster, err := attach(i, master, sw, "m", false)
		if err != nil {
			return nil, err
		}
		sendBackup := sendMaster
		if opts.Shards > 1 {
			backup := (master + 1) % opts.Shards
			if sendBackup, err = attach(i, backup, sw, "b", true); err != nil {
				return nil, err
			}
		}
		i := i
		sw.SetControlSender(func(msg []byte) {
			if fb.useBackup[i] {
				sendBackup(msg)
				return
			}
			sendMaster(msg)
		})
		fb.sws = append(fb.sws, sw)
	}

	// Chaos plan: one event per switch-outage edge toggling every datapath's
	// fail mode, then one controller-fault injector per shard.
	if cfg.Chaos != nil {
		for _, w := range cfg.Chaos.SwitchOutages {
			k.At(w.Start, func() { fb.setControlDown(true) })
			k.At(w.End, func() { fb.setControlDown(false) })
		}
		if cfg.Chaos.Controller.Enabled() {
			for range fb.ctls {
				fb.injs = append(fb.injs, chaos.NewInjector(k, cfg.Chaos.Controller, nil))
			}
		}
	}

	// Crash windows: deterministic handoff at the window edges, one event
	// per edge toggling the controller and every switch it masters.
	for j := 0; j < opts.Shards; j++ {
		for _, w := range opts.CrashWindows[j] {
			j := j
			k.At(w.Start, func() {
				fb.ctlDown[j] = true
				if opts.Shards > 1 {
					for i := range fb.sws {
						if i%opts.Shards == j && !fb.useBackup[i] {
							fb.useBackup[i] = true
							fb.handoffs++
						}
					}
				}
			})
			k.At(w.End, func() {
				fb.ctlDown[j] = false
				for i := range fb.sws {
					if i%opts.Shards == j {
						fb.useBackup[i] = false
					}
				}
			})
		}
	}

	// Data-plane failure plan: translated into kernel events, one per
	// affected switch (fabricfail.go). Shards learn each other's topology
	// transitions over a modeled sync link; wiring the hook without a plan
	// changes nothing — it only fires on first-hand learns, which need a
	// port_status.
	if !opts.Failures.Empty() {
		fb.initSurvivability(opts.Failures)
		fb.scheduleFailures(opts.Failures)
	}
	if opts.Shards > 1 {
		fb.wirePeerSync()
	}

	// Data plane: one link per directed switch-switch edge plus the host
	// access links, all created in switch/port order for determinism.
	fb.dataLinks = make([][]*netem.Link, g.NumSwitches())
	for i := 0; i < g.NumSwitches(); i++ {
		fb.dataLinks[i] = make([]*netem.Link, g.NumPorts(i))
		for p := 1; p <= g.NumPorts(i); p++ {
			peer, _ := g.PeerOf(i, uint16(p))
			if peer.Switch < 0 {
				continue
			}
			l, err := mkLink(fmt.Sprintf("sw%d:%d->sw%d", i, p, peer.Switch), cfg.HostLinkMbps, cfg.HostLinkPropagation)
			if err != nil {
				return nil, err
			}
			fb.dataLinks[i][p-1] = l
		}
	}
	for hIdx, h := range g.Hosts() {
		up, err := mkLink(fmt.Sprintf("h%d->sw%d", hIdx, h.Switch), cfg.HostLinkMbps, cfg.HostLinkPropagation)
		if err != nil {
			return nil, err
		}
		down, err := mkLink(fmt.Sprintf("sw%d->h%d", h.Switch, hIdx), cfg.HostLinkMbps, cfg.HostLinkPropagation)
		if err != nil {
			return nil, err
		}
		fb.hostUp = append(fb.hostUp, up)
		fb.hostDown = append(fb.hostDown, down)
	}
	for i := range fb.sws {
		i := i
		fb.sws[i].SetTransmit(func(port uint16, frame []byte) { fb.onTransmit(i, port, frame) })
	}
	return fb, nil
}

// setControlDown flips every switch into (or out of) its fail mode.
func (fb *Fabric) setControlDown(down bool) {
	for _, sw := range fb.sws {
		sw.SetControlDown(down)
	}
}

// onTransmit routes every frame leaving switch i onto the proper egress
// link: the next path switch, a host, or (misrouted) anywhere else.
func (fb *Fabric) onTransmit(i int, port uint16, frame []byte) {
	peer, ok := fb.g.PeerOf(i, port)
	if !ok {
		return
	}
	if peer.Host >= 0 {
		if peer.Host == fb.opts.DstHost {
			fb.observeExit(i, frame)
			fb.hostDown[peer.Host].Send(frame, func() {
				fb.delivered++
				if fb.deliveryTimes != nil {
					fb.deliveryTimes = append(fb.deliveryTimes, fb.kernel.Now())
				}
			})
			return
		}
		// A workload frame leaving toward any other host took a wrong turn.
		if _, _, ok := fb.identify(frame); ok {
			fb.misdelivered++
		}
		fb.hostDown[peer.Host].Send(frame, nil)
		return
	}
	fb.hopExit(i, frame)
	next, nextPort := peer.Switch, peer.Port
	fb.dataLinks[i][port-1].Send(frame, func() {
		// A frame in flight when the wire died arrives to a down port and is
		// destroyed there — the egress backstop stops new sends at the source,
		// this accounts for what the failure caught mid-air.
		if fb.sws[next].Datapath().PortDown(nextPort) {
			fb.linkDownDrops++
			return
		}
		fb.noteIngress(next, frame)
		fb.hopEnter(next, frame)
		fb.sws[next].Ingest(nextPort, frame)
	})
}

// identify maps a frame to its workload flow id.
func (fb *Fabric) identify(frame []byte) (frameIdent, int, bool) {
	f, err := packet.ParseHeaders(frame)
	if err != nil {
		return frameIdent{}, 0, false
	}
	ident := frameIdent{key: f.Key(), ipid: f.IPID}
	id, ok := fb.index[ident]
	return ident, id, ok
}

// observeExit is the exactly-once-in-order oracle at the destination edge:
// pktgen stamps each frame's IP id with its 0-based per-flow sequence
// number, so a repeated ident is a duplicate emission and a sequence number
// below the flow's high-water mark is an ordering violation.
func (fb *Fabric) observeExit(sw int, frame []byte) {
	now := fb.kernel.Now()
	ident, id, ok := fb.identify(frame)
	if !ok {
		return
	}
	fb.hopExit(sw, frame)
	fb.emitted[ident]++
	if fb.emitted[ident] > 1 {
		fb.dups++
	}
	tr := fb.flows[id]
	if tr == nil || !tr.haveEnter {
		return
	}
	if seq := int(ident.ipid); seq < tr.lastSeq {
		fb.misorders++
		fb.lastReorderAt = now
	} else {
		tr.lastSeq = seq
	}
	if !tr.haveLeave {
		tr.leaveFirst = now
		tr.haveLeave = true
		if fb.tel != nil {
			fb.tel.Span(telemetry.KindFlowSetup, tr.enterFirst, now,
				telemetry.HashKey(ident.key), uint32(id), uint32(len(frame)))
		}
	}
	if now > tr.leaveLast {
		tr.leaveLast = now
	}
	tr.leaves++
}

// hopEnter records a tracked frame's ingress time at a path switch and
// emits the inter-hop link span.
func (fb *Fabric) hopEnter(sw int, frame []byte) {
	if fb.hops == nil {
		return
	}
	pos, ok := fb.pathIndex[sw]
	if !ok {
		return
	}
	ident, _, ok := fb.identify(frame)
	if !ok {
		return
	}
	ht := fb.hops[ident]
	if ht == nil || ht.seenIn[pos] {
		return
	}
	now := fb.kernel.Now()
	ht.enters[pos] = now
	ht.seenIn[pos] = true
	if fb.tel != nil && pos > 0 && ht.seenEx[pos-1] {
		fb.tel.Span(telemetry.KindHopLink, ht.exits[pos-1], now,
			telemetry.HashKey(ident.key), uint32(pos-1), uint32(len(frame)))
	}
}

// hopExit records a tracked frame's egress time at a path switch and emits
// the hop-residency span.
func (fb *Fabric) hopExit(sw int, frame []byte) {
	if fb.hops == nil {
		return
	}
	pos, ok := fb.pathIndex[sw]
	if !ok {
		return
	}
	ident, _, ok := fb.identify(frame)
	if !ok {
		return
	}
	ht := fb.hops[ident]
	if ht == nil || ht.seenEx[pos] {
		return
	}
	now := fb.kernel.Now()
	ht.exits[pos] = now
	ht.seenEx[pos] = true
	if fb.tel != nil && ht.seenIn[pos] {
		fb.tel.Span(telemetry.KindHopResidency, ht.enters[pos], now,
			telemetry.HashKey(ident.key), uint32(pos), uint32(len(frame)))
	}
}

// Kernel exposes the event kernel.
func (fb *Fabric) Kernel() *sim.Kernel { return fb.kernel }

// Graph exposes the topology.
func (fb *Fabric) Graph() *topo.Graph { return fb.g }

// Switches exposes the simulated switches in topology order.
func (fb *Fabric) Switches() []*switchd.SimSwitch { return fb.sws }

// Controllers exposes the controller shards.
func (fb *Fabric) Controllers() []*controller.SimController { return fb.ctls }

// Forwarders exposes the per-shard PathForwarder applications.
func (fb *Fabric) Forwarders() []*topo.PathForwarder { return fb.apps }

// Capture exposes every control channel in wiring order (per switch: master,
// then backup when sharded).
func (fb *Fabric) Capture() []*capture.ControlChannel { return fb.chans }

// Telemetry exposes the recorder (nil unless Config.Telemetry was set).
func (fb *Fabric) Telemetry() *telemetry.Recorder { return fb.tel }

// Path exposes the workload's src→dst switch chain.
func (fb *Fabric) Path() []topo.Hop { return fb.path }

// HopRecord reports the recorded per-hop ingress and egress times of a
// flow's first packet (requires TrackHops). The slices index path positions;
// ok is false until the packet traversed the whole path.
func (fb *Fabric) HopRecord(flowID int) (enters, exits []time.Duration, ok bool) {
	ident, ok := fb.firstIdent[flowID]
	if !ok {
		return nil, nil, false
	}
	ht := fb.hops[ident]
	if ht == nil {
		return nil, nil, false
	}
	for pos := range fb.path {
		if !ht.seenIn[pos] || !ht.seenEx[pos] {
			return nil, nil, false
		}
	}
	return ht.enters, ht.exits, true
}

// Run replays a schedule from the source host and runs the fabric to
// quiescence. Delay metrics are measured source-edge ingress to
// destination-edge egress, i.e. across all hops.
func (fb *Fabric) Run(sched pktgen.Schedule) (*FabricResult, error) {
	if len(sched) == 0 {
		return nil, fmt.Errorf("testbed: empty schedule")
	}
	for _, e := range sched {
		f, err := packet.ParseHeaders(e.Frame)
		if err != nil {
			return nil, fmt.Errorf("testbed: schedule frame unparseable: %w", err)
		}
		ident := frameIdent{key: f.Key(), ipid: f.IPID}
		fb.index[ident] = e.FlowID
		if _, ok := fb.flows[e.FlowID]; !ok {
			fb.flows[e.FlowID] = &flowTrack{lastSeq: -1}
		}
		if fb.hops != nil && e.Seq == 0 {
			if _, dup := fb.firstIdent[e.FlowID]; !dup {
				fb.firstIdent[e.FlowID] = ident
				n := len(fb.path)
				fb.hops[ident] = &hopTrack{
					enters: make([]time.Duration, n),
					exits:  make([]time.Duration, n),
					seenIn: make([]bool, n),
					seenEx: make([]bool, n),
				}
			}
		}
	}
	// Every workload frame allocates these two closures, so they capture
	// only the link and the frame.
	up := fb.hostUp[fb.opts.SrcHost]
	for _, e := range sched {
		frame := e.Frame
		fb.kernel.At(e.At, func() {
			up.Send(frame, func() { fb.ingress(frame) })
		})
	}
	deadline := sched.Duration() + fb.cfg.Drain
	fb.kernel.Drain(deadline)
	fb.tel.Finish(fb.kernel.Now()) // nil-safe
	return fb.collect(sched), nil
}

// ingress hands a workload frame arriving from the source host to its edge
// switch.
func (fb *Fabric) ingress(frame []byte) {
	if _, id, ok := fb.identify(frame); ok {
		if tr := fb.flows[id]; !tr.haveEnter {
			tr.enterFirst = fb.kernel.Now()
			tr.haveEnter = true
		}
	}
	fb.noteIngress(fb.src.Switch, frame)
	fb.hopEnter(fb.src.Switch, frame)
	fb.sws[fb.src.Switch].Ingest(fb.src.Port, frame)
}

func (fb *Fabric) collect(sched pktgen.Schedule) *FabricResult {
	now := fb.kernel.Now()
	res := &FabricResult{
		Switches: fb.g.NumSwitches(),
		Shards:   fb.opts.Shards,
		PathHops: len(fb.path),
	}
	res.Elapsed = now
	res.SendingWindow = sched.Duration()
	res.FramesSent = len(sched)

	for _, ch := range fb.chans {
		res.CtrlLoadToControllerMbps += ch.ToController.LoadMbps(now)
		res.CtrlLoadToSwitchMbps += ch.ToSwitch.LoadMbps(now)
		pi, _ := ch.ToController.ByType(openflow.TypePacketIn)
		fm, _ := ch.ToSwitch.ByType(openflow.TypeFlowMod)
		po, _ := ch.ToSwitch.ByType(openflow.TypePacketOut)
		res.PacketIns += pi
		res.FlowMods += fm
		res.PacketOuts += po
	}
	for _, ctl := range fb.ctls {
		res.ControllerUsagePercent += ctl.CPUUtilizationPercent()
	}
	res.ControllerUsagePercent /= float64(len(fb.ctls))
	for _, inj := range fb.injs {
		res.CtrlStalled += inj.Stalled
		res.CtrlDropped += inj.Dropped
		res.CtrlCrashed += inj.Crashed
	}
	for _, app := range fb.apps {
		_, installs, skips, unroutable := app.Stats()
		res.PathInstalls += installs
		res.RemoteSkips += skips
		res.Unroutable += unroutable
		rerouted, blackholes := app.RecoveryStats()
		res.ReroutedPaths += rerouted
		res.Blackholes += blackholes
		if ts, ok := app.TableMgmt(); ok {
			res.Aggregations += ts.Aggregations
			res.RulesCompressed += ts.RulesCompressed
			res.Deaggregations += ts.Deaggregations
			res.CoveredSkips += ts.CoveredSkips
			res.TableFullErrors += ts.TableFullErrors
			res.FlowRemovedSeen += ts.FlowRemovedSeen
		}
	}
	for _, sw := range fb.sws {
		res.SwitchUsagePercent += sw.CPUUtilizationPercent()
		mech := sw.Datapath().Mechanism()
		st := mech.Stats(now)
		res.Rerequests += st.Rerequests
		res.BufferFallbacks += st.DroppedNoBuffer
		res.Giveups += st.Giveups
		res.BufferOccupancyMean += mech.OccupancyMean(now)
		if m := mech.OccupancyMax(); m > res.BufferOccupancyMax {
			res.BufferOccupancyMax = m
		}
		if pm, ok := mech.(interface{ Pool() *core.Pool }); ok {
			res.BufferUnitsLeaked += pm.Pool().Live()
			res.BufferBytesHighWater += uint64(pm.Pool().BytesHighWater())
			res.BufferRejectedBytes += pm.Pool().RejectedBytes()
			res.BufferBytesLeaked += pm.Pool().BytesInUse()
		}
		sf, cdm := sw.Datapath().FailStats()
		res.StandaloneForwards += sf
		res.ControlDownMisses += cdm
		res.ControllerDelay.Merge(sw.ControllerDelay())
		refusals, bufDrops, txDrops, crashLoss := sw.Datapath().FailureStats()
		res.DeadPortRefusals += refusals
		res.BufDropsDeadPort += bufDrops
		res.TxDownDrops += txDrops
		res.CrashBufPackets += uint64(crashLoss.Packets)
		res.CrashBufBytes += uint64(crashLoss.Bytes)
		rxDrops, ctlDrops := sw.CrashDrops()
		res.CrashRxDrops += rxDrops
		res.CrashCtlDrops += ctlDrops
		tm := sw.Datapath().TableMgmt()
		res.RuleInstalls += tm.Installs
		res.RuleReplacements += tm.Replacements
		res.RuleRejects += tm.Rejects
		res.RulesCleared += tm.Cleared
		res.RulesActive += uint64(tm.Active)
		res.RemovedIdle += tm.RemovedIdle
		res.RemovedHard += tm.RemovedHard
		res.RemovedDelete += tm.RemovedDelete
		res.RemovedEvict += tm.RemovedEvict
		res.LedgerGap += tm.LedgerGap()
	}
	res.SwitchUsagePercent /= float64(len(fb.sws))
	res.LinkDownDrops = fb.linkDownDrops
	res.LoopFrames = fb.loopFrames()
	res.ConvergenceTime = fb.convergenceTime()
	res.LastReorderTime = fb.lastReorderAt

	ids := make([]int, 0, len(fb.flows))
	for id := range fb.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tr := fb.flows[id]
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
	res.FramesDelivered = fb.delivered
	res.DupEmissions = fb.dups
	res.OrderViolations = fb.misorders
	res.Handoffs = fb.handoffs
	res.CtlDropped = fb.ctlDropped
	res.Misdelivered = fb.misdelivered
	return res
}
