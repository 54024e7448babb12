package topo

import (
	"fmt"
	"net/netip"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/tablemgmt"
)

// InstallMode selects how the controller answers a path miss.
type InstallMode uint8

const (
	// InstallHopByHop answers each switch's miss with that switch's rule
	// only — every hop costs one full packet_in round trip (the chained
	// amplification a k-hop path multiplies the paper's overhead by).
	InstallHopByHop InstallMode = iota
	// InstallPath answers the first miss with the whole route: the miss
	// switch gets its flow_mod and packet_out, and every downstream path
	// switch attached to the same controller gets its flow_mod in the same
	// batched decision (one controller CPU job, messages back-to-back via
	// the AppendEncode path). Downstream rules race the released packet
	// down the path and normally win: the data packet must serialize onto
	// each 100 Mbps data link while the flow_mods cross the parallel
	// control links concurrently.
	InstallPath
)

func (m InstallMode) String() string {
	if m == InstallPath {
		return "path"
	}
	return "hop"
}

// ParseInstallMode parses "hop" or "path".
func ParseInstallMode(s string) (InstallMode, error) {
	switch s {
	case "hop":
		return InstallHopByHop, nil
	case "path":
		return InstallPath, nil
	}
	return 0, fmt.Errorf("topo: unknown install mode %q (want hop or path)", s)
}

// PathForwarder is the fabric controller application: a reactive forwarder
// that routes by the topology's shortest-path tables instead of a static
// prefix list, knows which switch each controller connection belongs to,
// and (in InstallPath mode) installs the whole route on the first miss.
//
// One PathForwarder serves one SimController; with a sharded control plane
// each shard gets its own instance over the shared read-only Graph.
type PathForwarder struct {
	g    *Graph
	mode InstallMode
	cfg  controller.ForwarderConfig

	connSwitch map[int]int // controller conn -> switch index
	switchConn map[int]int // switch index -> conn on this controller

	// Recovery state (recovery.go): the forwarder routes by table, an
	// immutable snapshot swapped whole on every learned edge transition.
	// masteredOrder keeps flush emission deterministic.
	table         *RouteTable
	failedEdges   map[EdgeKey]bool
	masteredOrder []int
	peerNotify    func(e EdgeKey, down bool)

	// tm, when non-nil, is the flow-table management layer: it tracks
	// per-switch occupancy from flow_removed / table-full feedback and
	// compresses per-flow rules into destination-prefix wildcards once a
	// switch's table pressure crosses its threshold.
	tm *tablemgmt.Tracker

	packetIns     uint64
	pathInstalls  uint64 // downstream flow_mods sent by path installation
	remoteSkips   uint64 // path hops skipped because another shard masters them
	unroutable    uint64
	reroutedPaths uint64 // (switch, host) next hops changed by table swaps
	blackholes    uint64 // misses for destinations a failure cut off
}

var _ controller.ConnApp = (*PathForwarder)(nil)

// NewPathForwarder builds the application over a built graph.
func NewPathForwarder(g *Graph, mode InstallMode, cfg controller.ForwarderConfig) *PathForwarder {
	return &PathForwarder{
		g:          g,
		mode:       mode,
		cfg:        cfg,
		table:      g.Routes(),
		connSwitch: make(map[int]int),
		switchConn: make(map[int]int),
	}
}

// RegisterConn tells the forwarder that controller connection conn carries
// switch sw and that this controller masters the switch — the connection
// becomes a path-install target.
func (p *PathForwarder) RegisterConn(conn, sw int) {
	p.connSwitch[conn] = sw
	if _, ok := p.switchConn[sw]; !ok {
		p.switchConn[sw] = conn
		p.masteredOrder = append(p.masteredOrder, sw)
	}
}

// RegisterStandbyConn registers a backup connection: misses arriving on it
// (after a master crash hands the switch over) are answered, but the switch
// is not a path-install target here — its master installs its rules, and a
// shard never pushes rules onto switches it merely backs up.
func (p *PathForwarder) RegisterStandbyConn(conn, sw int) {
	p.connSwitch[conn] = sw
}

// EnableTableMgmt turns on the wildcard aggregation policy with the given
// configuration. Must be called before the forwarder handles traffic.
func (p *PathForwarder) EnableTableMgmt(cfg tablemgmt.Config) error {
	tm, err := tablemgmt.New(cfg)
	if err != nil {
		return err
	}
	p.tm = tm
	return nil
}

// TableMgmt reports the aggregation layer's counters; ok is false when the
// layer is disabled.
func (p *PathForwarder) TableMgmt() (tablemgmt.Stats, bool) {
	if p.tm == nil {
		return tablemgmt.Stats{}, false
	}
	return p.tm.Stats(), true
}

// Name implements controller.App.
func (p *PathForwarder) Name() string { return "path-forwarder" }

// HandlePacketIn implements controller.App. The fabric always attaches
// switches with explicit connections, so the conn-less entry point only
// exists to satisfy the interface.
func (p *PathForwarder) HandlePacketIn(*openflow.PacketIn, uint32) ([]openflow.Message, error) {
	return nil, fmt.Errorf("topo: PathForwarder needs connection dispatch (use SimController.AttachConn)")
}

// HandlePacketInConn implements controller.ConnApp: route the miss by the
// topology tables and answer with this hop's rule — plus, in path mode,
// rules for every downstream hop this controller masters.
func (p *PathForwarder) HandlePacketInConn(conn int, pi *openflow.PacketIn, xid uint32) ([]controller.Directed, error) {
	p.packetIns++
	sw, ok := p.connSwitch[conn]
	if !ok {
		return nil, fmt.Errorf("topo: packet_in on unregistered connection %d", conn)
	}
	frame, err := packet.ParseHeaders(pi.Data)
	if err != nil {
		return nil, fmt.Errorf("topo: parsing packet_in payload: %w", err)
	}
	dst, ok := p.g.HostByAddr(frame.DstIP)
	if !ok {
		return p.drop(conn, pi), nil
	}
	out, ok := p.table.NextHopPort(sw, dst)
	if !ok {
		if _, reachable := p.g.NextHopPort(sw, dst); reachable {
			// Routable on the pristine graph, not on the failure-masked one:
			// a failure cut this destination off. Named separately from
			// plain unroutability so survivability runs can tell the two
			// apart.
			p.blackholes++
		}
		return p.drop(conn, pi), nil
	}
	var directed []controller.Directed
	if p.tm != nil && p.tm.Covered(sw, frame.DstIP, out) {
		// An aggregate rule already forwards this destination: skip the
		// per-flow install and only release the buffered packet (mirroring
		// InstallMessages' packet_out shape).
		po := &openflow.PacketOut{
			BufferID: pi.BufferID,
			InPort:   pi.InPort,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: out, MaxLen: 0xffff}},
		}
		if pi.BufferID == openflow.NoBuffer {
			po.Data = pi.Data
		}
		directed = append(directed, controller.Directed{Conn: conn, Msg: po})
	} else {
		msgs := p.cfg.InstallMessages(pi, frame, out)
		directed = make([]controller.Directed, 0, len(msgs))
		for _, m := range msgs {
			directed = append(directed, controller.Directed{Conn: conn, Msg: m})
		}
		directed = p.noteInstall(directed, conn, sw, p.cfg.MatchFor(pi.InPort, frame), frame.DstIP, out)
	}
	if p.mode != InstallPath {
		return directed, nil
	}
	hops, err := p.table.PathFrom(sw, pi.InPort, dst)
	if err != nil {
		return nil, err
	}
	for _, hop := range hops[1:] { // hops[0] is the miss switch, answered above
		hopConn, ok := p.switchConn[hop.Switch]
		if !ok {
			// Another shard masters this hop; it will answer that switch's
			// own miss. Sharding dilutes the batch — by design, and the
			// sweep measures exactly how much.
			p.remoteSkips++
			continue
		}
		if p.tm != nil && p.tm.Covered(hop.Switch, frame.DstIP, hop.Exit) {
			// Covered downstream hops need nothing: no buffer is waiting
			// there, the aggregate already forwards the flow.
			continue
		}
		p.pathInstalls++
		match := p.cfg.MatchFor(hop.Entry, frame)
		directed = append(directed, controller.Directed{
			Conn: hopConn,
			Msg:  p.cfg.RuleFor(match, hop.Exit),
		})
		directed = p.noteInstall(directed, hopConn, hop.Switch, match, frame.DstIP, hop.Exit)
	}
	return directed, nil
}

// noteInstall records one per-flow install with the table-management layer
// and appends any aggregation messages (wildcard flow_mod plus strict
// deletes) it triggers, directed at the same switch.
func (p *PathForwarder) noteInstall(directed []controller.Directed, conn, sw int, match openflow.Match, dst netip.Addr, out uint16) []controller.Directed {
	if p.tm == nil {
		return directed
	}
	for _, m := range p.tm.NoteInstall(sw, match, p.cfg.EffectivePriority(), dst, out) {
		directed = append(directed, controller.Directed{Conn: conn, Msg: m})
	}
	return directed
}

// HandleFlowRemovedConn implements controller.FlowRemovedApp: rule-lifetime
// notifications feed the table-management occupancy estimate.
func (p *PathForwarder) HandleFlowRemovedConn(conn int, fr *openflow.FlowRemoved) ([]controller.Directed, error) {
	if p.tm == nil {
		return nil, nil
	}
	sw, ok := p.connSwitch[conn]
	if !ok {
		return nil, fmt.Errorf("topo: flow_removed on unregistered connection %d", conn)
	}
	p.tm.NoteFlowRemoved(sw, fr)
	return nil, nil
}

// HandleErrorConn implements controller.ErrorApp: all-tables-full
// rejections tell the table-management layer an install never landed.
func (p *PathForwarder) HandleErrorConn(conn int, e *openflow.ErrorMsg) ([]controller.Directed, error) {
	if p.tm == nil {
		return nil, nil
	}
	sw, ok := p.connSwitch[conn]
	if !ok {
		return nil, fmt.Errorf("topo: error message on unregistered connection %d", conn)
	}
	if e.ErrType == openflow.ErrTypeFlowModFailed && e.Code == openflow.ErrCodeAllTablesFull {
		p.tm.NoteTableFull(sw)
	}
	return nil, nil
}

// drop answers an unroutable miss: release the buffered packet with no
// actions (freeing the unit) instead of flooding — a fabric with cycles
// must never flood blindly.
func (p *PathForwarder) drop(conn int, pi *openflow.PacketIn) []controller.Directed {
	p.unroutable++
	if pi.BufferID == openflow.NoBuffer {
		return nil
	}
	return []controller.Directed{{
		Conn: conn,
		Msg:  &openflow.PacketOut{BufferID: pi.BufferID, InPort: pi.InPort},
	}}
}

// Stats reports the forwarder's decision counters: packet_ins handled,
// downstream rules pushed by path installation, path hops skipped because
// another shard masters them, and unroutable drops.
func (p *PathForwarder) Stats() (packetIns, pathInstalls, remoteSkips, unroutable uint64) {
	return p.packetIns, p.pathInstalls, p.remoteSkips, p.unroutable
}
