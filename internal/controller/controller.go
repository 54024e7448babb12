// Package controller is the testbed's SDN controller — the stand-in for
// Floodlight. The forwarding application answers every packet_in with a
// pair of control operation messages, exactly the interaction the paper
// measures: a flow_mod installing the forwarding rule and a packet_out
// releasing the miss-match packet.
//
// Like the switch, the protocol logic is shared between the deterministic
// simulator (SimController) and the live TCP server (Server), which run the
// same App (topo.PathForwarder) through the same entry points.
package controller

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// App decides how to answer switch-originated messages. It is the one
// application surface of both controllers: SimController and the live
// Server call the same entry points (see decide) and ship the same []Directed
// decision records. Each controller makes one app call at a time, so apps
// keep no locks of their own, and must not call back into the controller.
type App interface {
	// Name identifies the application.
	Name() string
	// HandlePacketInConn answers one packet_in that arrived on connection
	// conn. Replies may target any connection — what a fabric controller
	// needs to install a whole path in one decision — and all carry the
	// request's transaction id.
	HandlePacketInConn(conn int, pi *openflow.PacketIn, xid uint32) ([]Directed, error)
}

// Directed is one reply aimed at a specific switch connection: the index
// SimController.AttachConn handed out, or the live server's connection id.
type Directed struct {
	Conn int
	Msg  openflow.Message
}

// DatapathApp is the optional App extension for the live server's
// connection lifecycle: AttachDatapath binds a connection to the datapath
// its FEATURES_REPLY announced (an error evicts the connection), and
// DetachConn forgets a connection the server tore down. The simulator wires
// switches to connections itself and never calls it.
type DatapathApp interface {
	AttachDatapath(conn int, dpid uint64) error
	DetachConn(conn int)
}

// PortStatusApp is the optional App extension for topology-change
// notifications: the controller calls it for every port_status a switch
// announces, and the returned messages (typically flow_mod deletes flushing
// routes through the changed link) ship like any other decision. Apps
// without it keep the legacy behavior — port_status is consumed silently.
type PortStatusApp interface {
	HandlePortStatusConn(conn int, ps *openflow.PortStatus) ([]Directed, error)
}

// FlowRemovedApp is the optional App extension for rule-lifetime
// notifications: the controller calls it for every flow_removed a switch
// reports (idle/hard expiry, delete, capacity eviction), letting the app
// track per-switch table occupancy without polling. Apps without it keep
// the legacy behavior — flow_removed is consumed silently.
type FlowRemovedApp interface {
	HandleFlowRemovedConn(conn int, fr *openflow.FlowRemoved) ([]Directed, error)
}

// ErrorApp is the optional App extension for switch-reported errors. The
// table-management layer uses it to see all-tables-full rejections — the
// signal that a switch's table saturated and per-flow installs are being
// refused. Apps without it keep the legacy behavior — errors are consumed
// silently.
type ErrorApp interface {
	HandleErrorConn(conn int, e *openflow.ErrorMsg) ([]Directed, error)
}

// decide runs the app entry point for one switch-originated message that
// arrived on conn: packet_in always, port_status, flow_removed and error
// when the app implements the matching extension. Every other message, and
// an extension the app lacks, yields no replies. Both controllers answer
// through it, so sim and live run one decision path.
func decide(app App, conn int, m openflow.Message, xid uint32) ([]Directed, error) {
	switch t := m.(type) {
	case *openflow.PacketIn:
		return app.HandlePacketInConn(conn, t, xid)
	case *openflow.PortStatus:
		if a, ok := app.(PortStatusApp); ok {
			return a.HandlePortStatusConn(conn, t)
		}
	case *openflow.FlowRemoved:
		if a, ok := app.(FlowRemovedApp); ok {
			return a.HandleFlowRemovedConn(conn, t)
		}
	case *openflow.ErrorMsg:
		if a, ok := app.(ErrorApp); ok {
			return a.HandleErrorConn(conn, t)
		}
	}
	return nil, nil
}

// Route maps a destination prefix to an output port.
type Route struct {
	Prefix netip.Prefix
	Port   uint16
}

// ForwarderConfig configures the reactive forwarding application.
type ForwarderConfig struct {
	// Routes select the output port by longest-prefix match on the
	// destination IP. A packet matching no route is flooded.
	Routes []Route
	// IdleTimeout / HardTimeout are installed into each rule, in seconds
	// (0 = no timeout, the paper's single-run setting).
	IdleTimeout uint16
	HardTimeout uint16
	// Priority of installed rules.
	Priority uint16
	// CombinedFlowMod makes the rule installation release the buffered
	// packet too (flow_mod carrying the buffer_id) instead of sending the
	// spec's separate packet_out. This is an ablation knob; the paper's
	// interaction always uses the flow_mod + packet_out pair.
	CombinedFlowMod bool
	// MatchFlowOnly installs 5-tuple rules instead of exact-match rules.
	MatchFlowOnly bool
	// RequestFlowRemoved sets OFPFF_SEND_FLOW_REM on installed rules.
	RequestFlowRemoved bool
}

// ReactiveForwarder is the single-switch forwarding application: it picks
// the output port by longest-prefix match on a static route list. Every
// controller in this repository runs topo.PathForwarder; this one stays as
// the benchmark harness's fixed-cost app.
type ReactiveForwarder struct {
	cfg ForwarderConfig

	packetIns atomic.Uint64
	flooded   atomic.Uint64
}

var _ App = (*ReactiveForwarder)(nil)

// NewReactiveForwarder builds the application.
func NewReactiveForwarder(cfg ForwarderConfig) (*ReactiveForwarder, error) {
	for _, r := range cfg.Routes {
		if !r.Prefix.IsValid() || !r.Prefix.Addr().Is4() {
			return nil, fmt.Errorf("controller: invalid IPv4 route prefix %v", r.Prefix)
		}
		if r.Port == 0 {
			return nil, fmt.Errorf("controller: route %v has port 0", r.Prefix)
		}
	}
	return &ReactiveForwarder{cfg: cfg}, nil
}

// Name implements App.
func (*ReactiveForwarder) Name() string { return "reactive-forwarder" }

// lookupPort picks the longest-prefix route for dst, or flood.
func (f *ReactiveForwarder) lookupPort(dst netip.Addr) uint16 {
	best := -1
	port := openflow.PortFlood
	for _, r := range f.cfg.Routes {
		if r.Prefix.Contains(dst) && r.Prefix.Bits() > best {
			best = r.Prefix.Bits()
			port = r.Port
		}
	}
	if best < 0 {
		f.flooded.Add(1)
	}
	return port
}

// HandlePacketInConn implements App: decide the output port from the packet
// headers, install the rule, and release the miss-match packet, all on the
// requesting connection.
func (f *ReactiveForwarder) HandlePacketInConn(conn int, pi *openflow.PacketIn, _ uint32) ([]Directed, error) {
	f.packetIns.Add(1)
	var frame packet.Frame // retained by nothing: the match copies its fields
	if err := packet.ParseEthernetInto(&frame, pi.Data); err != nil {
		return nil, fmt.Errorf("controller: parsing packet_in payload: %w", err)
	}
	return f.cfg.Install(conn, pi, &frame, f.lookupPort(frame.DstIP)), nil
}

// HandlePacketIn answers one packet_in as a plain message list, for callers
// that time the decision without a connection.
func (f *ReactiveForwarder) HandlePacketIn(pi *openflow.PacketIn, xid uint32) ([]openflow.Message, error) {
	replies, err := f.HandlePacketInConn(0, pi, xid)
	msgs := make([]openflow.Message, len(replies))
	for i, r := range replies {
		msgs[i] = r.Msg
	}
	return msgs, err
}

// RuleFor builds the flow_mod installing the config's rule shape for the
// given match and output port (no buffer release). Fabric controllers use
// it to install rules on downstream path switches whose miss hasn't
// happened yet.
func (cfg ForwarderConfig) RuleFor(match openflow.Match, outPort uint16) *openflow.FlowMod {
	var flags uint16
	if cfg.RequestFlowRemoved {
		flags |= openflow.FlowModFlagSendFlowRem
	}
	return &openflow.FlowMod{
		Match:       match,
		Command:     openflow.FlowModAdd,
		IdleTimeout: cfg.IdleTimeout,
		HardTimeout: cfg.HardTimeout,
		Priority:    cfg.EffectivePriority(),
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortNone,
		Flags:       flags,
		Actions:     []openflow.Action{&openflow.ActionOutput{Port: outPort, MaxLen: 0xffff}},
	}
}

// EffectivePriority is the priority RuleFor installs: the configured value,
// defaulted to 100.
func (cfg ForwarderConfig) EffectivePriority() uint16 {
	if cfg.Priority == 0 {
		return 100
	}
	return cfg.Priority
}

// MatchFor builds the config's match shape for a miss: exact-match on the
// full headers plus in-port, or the 5-tuple flow match.
func (cfg ForwarderConfig) MatchFor(inPort uint16, frame *packet.Frame) openflow.Match {
	if cfg.MatchFlowOnly {
		return openflow.FlowMatch(frame.Key())
	}
	return openflow.ExactMatch(inPort, frame)
}

// Install answers one miss the standard reactive way, as replies on conn:
// a flow_mod installing the forwarding rule and a packet_out releasing the
// miss-match packet (or, with CombinedFlowMod, one flow_mod doing both).
// Every forwarder builds its per-switch answer here, so equal decisions
// produce byte-identical control traffic.
func (cfg ForwarderConfig) Install(conn int, pi *openflow.PacketIn, frame *packet.Frame, outPort uint16) []Directed {
	fm := cfg.RuleFor(cfg.MatchFor(pi.InPort, frame), outPort)
	if cfg.CombinedFlowMod && pi.BufferID != openflow.NoBuffer {
		// Ablation: one message installs the rule and releases the buffer.
		fm.BufferID = pi.BufferID
		return []Directed{{Conn: conn, Msg: fm}}
	}
	return []Directed{{Conn: conn, Msg: fm}, {Conn: conn, Msg: Release(pi, fm.Actions)}}
}

// Release builds the packet_out that releases a missed packet along
// actions: it names the switch-side buffer, or carries the whole packet back
// when the switch did not buffer it.
func Release(pi *openflow.PacketIn, actions []openflow.Action) *openflow.PacketOut {
	po := &openflow.PacketOut{BufferID: pi.BufferID, InPort: pi.InPort, Actions: actions}
	if pi.BufferID == openflow.NoBuffer {
		po.Data = pi.Data
	}
	return po
}

// Stats reports requests handled and flood decisions.
func (f *ReactiveForwarder) Stats() (packetIns, flooded uint64) {
	return f.packetIns.Load(), f.flooded.Load()
}

// CostModel is the controller's CPU demand per handled message: a base
// decision cost plus a per-byte parse/encapsulation cost. The per-byte term
// is what makes full-packet packet_ins expensive — the source of the
// paper's Fig. 3 controller-usage gap.
type CostModel struct {
	Base    time.Duration
	PerByte time.Duration
}

// Cost reports the CPU demand for a message of the given length, including
// the bytes the controller must emit in response.
func (c CostModel) Cost(inBytes, outBytes int) time.Duration {
	return c.Base + time.Duration(inBytes+outBytes)*c.PerByte
}

// DefaultCostModel returns the calibrated Floodlight-like cost model.
func DefaultCostModel() CostModel {
	return CostModel{Base: 40 * time.Microsecond, PerByte: 75 * time.Nanosecond}
}
