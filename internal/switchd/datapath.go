// Package switchd is the software OpenFlow switch — the testbed's stand-in
// for Open vSwitch. The whole protocol half lives in Datapath: flow-table
// matching, the buffer mechanism, action application, the dispatcher for
// every controller-to-switch message (Control), the timer work (Due and
// NextDeadline) and the messages each of them owes the controller. Two
// front ends supply only transport: the deterministic simulator (SimSwitch)
// with its CPU and bus model, and the live TCP agent (Agent) with its
// sockets. Both keep the datapath's deadlines with the same deadlineTimer,
// so both modes exercise the same code.
package switchd

import (
	"errors"
	"fmt"
	"time"

	"sdnbuffer/internal/core"
	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/telemetry"
)

// FailMode selects how the datapath behaves while the control channel is
// down (SetControlDown). The zero value is fail-secure, matching OVS's
// default and the safer posture: installed rules keep forwarding and misses
// keep queueing into the bounded buffer pool — the re-request timer then
// recovers them organically once the channel is restored. Fail-standalone
// instead degrades misses to transparent L2 learning-switch forwarding so
// traffic keeps moving without the controller; the learned MAC table lives
// only for the duration of the outage and is cleared on restore, handing
// authority back to the controller.
type FailMode uint8

const (
	// FailSecure keeps the flow table authoritative and buffers misses while
	// the control channel is down.
	FailSecure FailMode = iota
	// FailStandalone forwards misses via MAC learning while the control
	// channel is down.
	FailStandalone
)

// String names the fail mode.
func (m FailMode) String() string {
	switch m {
	case FailSecure:
		return "fail-secure"
	case FailStandalone:
		return "fail-standalone"
	default:
		return fmt.Sprintf("fail-mode(%d)", uint8(m))
	}
}

// Config describes a datapath.
type Config struct {
	// DatapathID is the switch's OpenFlow identity.
	DatapathID uint64
	// NumPorts is the number of physical ports, numbered 1..NumPorts.
	NumPorts int
	// TableCapacity bounds the flow table (flowtable.Unlimited = none).
	TableCapacity int
	// EvictionPolicy applies when the table is bounded (default EvictLRU).
	EvictionPolicy flowtable.EvictionPolicy
	// Buffer selects the buffer mechanism and its parameters.
	Buffer openflow.FlowBufferConfig
	// BufferCapacity is the number of buffer units (ignored with
	// GranularityNone).
	BufferCapacity int
	// MissSendLen truncates buffered packet_in payloads (default
	// openflow.DefaultMissSendLen).
	MissSendLen int
	// BufferExpiry bounds buffered-packet lifetime (0 = none).
	BufferExpiry time.Duration
	// FailMode selects control-channel-loss behavior (default FailSecure).
	FailMode FailMode
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.NumPorts == 0 {
		out.NumPorts = 2
	}
	if out.EvictionPolicy == 0 {
		out.EvictionPolicy = flowtable.EvictLRU
	}
	if out.MissSendLen == 0 {
		out.MissSendLen = openflow.DefaultMissSendLen
	}
	if out.Buffer.Granularity == 0 {
		out.Buffer.Granularity = openflow.GranularityNone
	}
	if out.BufferCapacity == 0 {
		out.BufferCapacity = 256
	}
	if out.Buffer.Granularity == openflow.GranularityFlow && out.Buffer.RerequestTimeoutMs == 0 {
		out.Buffer.RerequestTimeoutMs = 50
	}
	return out
}

// Output is one frame to emit on a port. Queue is the ENQUEUE action's
// queue id (0 = the port's default queue); the modeled ports have one FIFO
// each, so nothing schedules on it.
type Output struct {
	Port  uint16
	Frame []byte
	Queue uint32
}

// FrameResult is the datapath's decision for one ingress frame.
type FrameResult struct {
	// Outputs are the frames to transmit (table hit, possibly rewritten).
	Outputs []Output
	// Miss is set when the frame missed the table; it carries the buffer
	// mechanism's decision.
	Miss *core.MissResult
	// Matched is the rule that matched, nil on a miss.
	Matched *flowtable.Entry
}

// ErrBadPort reports an out-of-range port number.
var ErrBadPort = errors.New("switchd: bad port")

// Datapath is the protocol core of the switch.
type Datapath struct {
	cfg   Config
	table *flowtable.Table
	mech  core.Mechanism

	rxFrames uint64
	rxBytes  uint64
	txFrames uint64
	txBytes  uint64
	misses   uint64

	// reclaimDelay is the lazy buffer-slot reclamation delay the simulator
	// models (SimConfig.ReclaimDelay), kept so that a mechanism built by a
	// runtime reconfiguration gets it too.
	reclaimDelay time.Duration

	// Control-channel fail-mode state. macTable is allocated lazily on the
	// first standalone-forwarded frame and discarded when the channel is
	// restored, so the healthy hot path never touches a map.
	controlDown        bool
	macTable           map[packet.MAC]uint16
	standaloneForwards uint64
	downMisses         uint64

	// Data-plane failure state (DESIGN.md §16). portDown is indexed by port
	// number (slot 0 unused); crashed wipes and gates the whole datapath
	// until Restart.
	portDown []bool
	crashed  bool

	deadPortRefusals uint64          // installs/releases refused for a down egress port
	bufDropsDeadPort uint64          // buffered packets destroyed after a refusal
	txDownDrops      uint64          // outputs suppressed because the egress port is down
	crashBufferLoss  core.BufferLoss // buffered state destroyed by crashes

	// Flow-table management ledger (DESIGN.md §17): every rule that enters
	// the table is eventually accounted active, removed by reason, or lost
	// to a crash wipe, and every refused flow_mod is counted — the closed
	// rule ledger the tablemgmt oracle checks.
	ruleInstalls     uint64    // flow_mod ADDs that appended a new rule
	ruleReplacements uint64    // flow_mod ADDs that replaced an identical match
	tableFullRejects uint64    // flow_mod ADDs refused with all-tables-full
	rulesCleared     uint64    // rules wiped without notification by a crash
	removedByReason  [4]uint64 // indexed by openflow.Removed* reason code

	// Per-datapath scratch reused by HandleFrame so the steady-state packet
	// path (parse → lookup hit → forward) allocates nothing. The returned
	// FrameResult therefore aliases these fields — see HandleFrame's doc for
	// the ownership contract.
	parseScratch packet.Frame
	outScratch   []Output
	missScratch  core.MissResult
	resScratch   FrameResult

	// tel is nil unless telemetry is wired (SetTelemetry); every hook below
	// guards on the nil check so the default hot path pays nothing.
	tel *telemetry.Recorder
}

// NewDatapath builds a datapath from the configuration.
func NewDatapath(cfg Config) (*Datapath, error) {
	cfg = cfg.withDefaults()
	if cfg.NumPorts < 1 {
		return nil, fmt.Errorf("switchd: need at least one port, got %d", cfg.NumPorts)
	}
	table, err := flowtable.New(cfg.TableCapacity, cfg.EvictionPolicy)
	if err != nil {
		return nil, fmt.Errorf("switchd: building flow table: %w", err)
	}
	mech, err := core.NewMechanism(cfg.Buffer, cfg.BufferCapacity, cfg.MissSendLen, cfg.BufferExpiry)
	if err != nil {
		return nil, fmt.Errorf("switchd: building buffer mechanism: %w", err)
	}
	return &Datapath{
		cfg:      cfg,
		table:    table,
		mech:     mech,
		portDown: make([]bool, cfg.NumPorts+1),
	}, nil
}

// Config reports the effective (defaulted) configuration.
func (d *Datapath) Config() Config { return d.cfg }

// Table exposes the flow table.
func (d *Datapath) Table() *flowtable.Table { return d.table }

// Mechanism exposes the buffer mechanism.
func (d *Datapath) Mechanism() core.Mechanism { return d.mech }

// SetTelemetry wires the packet-lifecycle recorder into the datapath and
// its buffer mechanism: table hits/misses, control operations and NetFlow
// observations are emitted here, buffer enqueues by the mechanism, and drain
// spans (with per-flow residency credit) on release. nil disables (the
// default).
func (d *Datapath) SetTelemetry(rec *telemetry.Recorder) {
	d.tel = rec
	if m, ok := d.mech.(interface{ SetTelemetry(*telemetry.Recorder) }); ok {
		m.SetTelemetry(rec)
	}
}

// setReclaimDelay gives the buffer pool, and the pool of any mechanism a
// later reconfiguration builds, a lazy slot-reclamation delay.
func (d *Datapath) setReclaimDelay(delay time.Duration) {
	d.reclaimDelay = delay
	if m, ok := d.mech.(interface{ Pool() *core.Pool }); ok && delay > 0 {
		m.Pool().SetReclaimDelay(delay)
	}
}

// SetControlDown flips the datapath in or out of its configured fail mode.
// Restoring the channel clears any outage-learned MAC table: the controller
// is authoritative again and stale learning must not shadow its rules.
func (d *Datapath) SetControlDown(down bool) {
	if d.controlDown == down {
		return
	}
	d.controlDown = down
	if !down {
		d.macTable = nil
	}
}

// ControlDown reports whether the datapath currently treats the control
// channel as dead.
func (d *Datapath) ControlDown() bool { return d.controlDown }

// FailStats reports fail-mode counters: frames forwarded by the standalone
// learning switch, and table misses taken while the control channel was
// down (either mode).
func (d *Datapath) FailStats() (standaloneForwards, downMisses uint64) {
	return d.standaloneForwards, d.downMisses
}

// Features builds the switch's FEATURES_REPLY.
func (d *Datapath) Features() *openflow.FeaturesReply {
	ports := make([]openflow.PhyPort, d.cfg.NumPorts)
	for i := range ports {
		ports[i] = d.PhyPortDesc(uint16(i + 1))
	}
	nbuf := uint32(0)
	if d.cfg.Buffer.Granularity != openflow.GranularityNone {
		nbuf = uint32(d.cfg.BufferCapacity)
	}
	return &openflow.FeaturesReply{
		DatapathID: d.cfg.DatapathID,
		NBuffers:   nbuf,
		NTables:    1,
		Actions:    1<<uint(openflow.ActionTypeOutput) | 1<<uint(openflow.ActionTypeSetDLSrc) | 1<<uint(openflow.ActionTypeSetDLDst),
		Ports:      ports,
	}
}

// HandleFrame processes one ingress frame: flow-table lookup, then either
// action application (hit) or the buffer mechanism (miss).
//
// The returned FrameResult — including its Outputs slice and Miss pointer —
// is scratch owned by the datapath and is valid only until the next
// HandleFrame call; callers that keep any of it across frames must copy
// (DESIGN.md §10). The Output frame bytes themselves are not scratch: they
// alias the caller's frame (or a rewritten copy) and stay valid as long as
// the caller's buffer does.
func (d *Datapath) HandleFrame(now time.Duration, inPort uint16, frame []byte) (*FrameResult, error) {
	if inPort < 1 || int(inPort) > d.cfg.NumPorts {
		return nil, fmt.Errorf("%w: in_port %d of %d", ErrBadPort, inPort, d.cfg.NumPorts)
	}
	d.rxFrames++
	d.rxBytes += uint64(len(frame))
	parsed := &d.parseScratch
	if err := packet.ParseEthernetInto(parsed, frame); err != nil {
		return nil, fmt.Errorf("switchd: unparseable frame on port %d: %w", inPort, err)
	}
	if d.tel != nil {
		d.tel.FlowObserve(now, parsed.Key(), len(frame))
	}
	if e := d.table.Lookup(now, inPort, parsed, len(frame)); e != nil {
		outs, err := d.applyActions(now, inPort, frame, e.Actions, d.outScratch[:0])
		if err != nil {
			return nil, err
		}
		d.outScratch = outs
		d.countTx(outs)
		if d.tel != nil {
			d.tel.Instant(telemetry.KindForward, now, telemetry.HashKey(parsed.Key()), uint32(inPort), uint32(len(frame)))
		}
		d.resScratch = FrameResult{Outputs: outs, Matched: e}
		return &d.resScratch, nil
	}
	d.misses++
	if d.tel != nil {
		d.tel.Instant(telemetry.KindMiss, now, telemetry.HashKey(parsed.Key()), uint32(inPort), uint32(len(frame)))
	}
	if d.controlDown {
		d.downMisses++
		if d.cfg.FailMode == FailStandalone {
			return d.standaloneForward(inPort, parsed, frame)
		}
		// Fail-secure: fall through to the mechanism — misses keep queueing
		// into the bounded pool; the packet_in is lost on the dead channel
		// and the re-request timer recovers the flow after restore.
	}
	d.missScratch = d.mech.HandleMiss(now, inPort, frame, parsed.Key())
	d.resScratch = FrameResult{Miss: &d.missScratch}
	return &d.resScratch, nil
}

// standaloneForward is the fail-standalone degraded path: transparent L2
// learning-switch forwarding for table misses while the controller is
// unreachable. Learned entries exist only for the outage's duration.
func (d *Datapath) standaloneForward(inPort uint16, parsed *packet.Frame, frame []byte) (*FrameResult, error) {
	if d.macTable == nil {
		d.macTable = make(map[packet.MAC]uint16)
	}
	d.macTable[parsed.SrcMAC] = inPort
	outs := d.outScratch[:0]
	var err error
	if port, known := d.macTable[parsed.DstMAC]; known && !parsed.DstMAC.IsBroadcast() {
		if port != inPort {
			outs, err = d.emitAction(outs, inPort, frame, port, 0)
		}
	} else {
		outs, err = d.emitAction(outs, inPort, frame, openflow.PortFlood, 0)
	}
	if err != nil {
		return nil, err
	}
	d.outScratch = outs
	d.countTx(outs)
	d.standaloneForwards++
	d.resScratch = FrameResult{Outputs: outs}
	return &d.resScratch, nil
}

// ControlResult is the effect of one controller-to-switch message.
type ControlResult struct {
	// Outputs are frames to transmit (released buffered packets or
	// packet_out data, after action application).
	Outputs []Output
	// Msgs are the switch-to-controller messages the request caused, in
	// send order: the reply (an error, or a barrier, echo, features or
	// config reply), then a flow_removed for each rule that asked for one
	// and left the table. All of them carry the request's xid.
	Msgs []openflow.Message
}

func replyWith(m openflow.Message) *ControlResult {
	return &ControlResult{Msgs: []openflow.Message{m}}
}

// Control dispatches one controller-to-switch message, decoded with its
// xid: flow_mod, packet_out, the handshake and keepalive queries, barrier,
// get/set_config and the vendor buffer reconfiguration. Both front ends hand
// every decoded message here and send what the result holds. An error means
// the message was refused with nothing to send: a vendor message that does
// not parse or a reconfiguration while units are in use, a message type a
// controller does not send, or a datapath fault.
func (d *Datapath) Control(now time.Duration, m openflow.Message, xid uint32) (*ControlResult, error) {
	switch t := m.(type) {
	case *openflow.FlowMod:
		d.controlOp(telemetry.KindFlowMod, now, xid, m)
		return d.HandleFlowMod(now, t)
	case *openflow.PacketOut:
		d.controlOp(telemetry.KindPacketOut, now, xid, m)
		return d.HandlePacketOut(now, t)
	case *openflow.FeaturesRequest:
		return replyWith(d.Features()), nil
	case *openflow.EchoRequest:
		return replyWith(&openflow.EchoReply{Data: t.Data}), nil
	case *openflow.BarrierRequest:
		return replyWith(&openflow.BarrierReply{}), nil
	case *openflow.GetConfigRequest:
		return replyWith(&openflow.GetConfigReply{Config: openflow.SwitchConfig{
			MissSendLen: uint16(d.cfg.MissSendLen),
		}}), nil
	case *openflow.SetConfig:
		if n := int(t.Config.MissSendLen); n > 0 {
			d.cfg.MissSendLen = n
			d.mech.SetMissSendLen(n)
		}
		return &ControlResult{}, nil
	case *openflow.Hello:
		return &ControlResult{}, nil
	case *openflow.Vendor:
		cfg, err := openflow.ParseFlowBufferConfig(t)
		if err != nil {
			return nil, err
		}
		if err := d.reconfigureBuffer(now, cfg); err != nil {
			return nil, err
		}
		return &ControlResult{}, nil
	default:
		return nil, fmt.Errorf("switchd: unexpected %v from a controller", m.Type())
	}
}

// controlOp records a flow_mod or packet_out arriving at the datapath.
func (d *Datapath) controlOp(kind telemetry.SpanKind, now time.Duration, xid uint32, m openflow.Message) {
	if d.tel != nil {
		d.tel.Instant(kind, now, 0, xid, uint32(openflow.EncodedLen(m)))
	}
}

// badTypeError is the reply to a well-framed message whose type the switch
// does not implement: OFPET_BAD_REQUEST/OFPBRC_BAD_TYPE carrying the first
// 64 bytes of the offending frame, as the spec asks.
func badTypeError(frame []byte) *openflow.ErrorMsg {
	return &openflow.ErrorMsg{
		ErrType: openflow.ErrTypeBadRequest,
		Code:    openflow.ErrCodeBadType,
		Data:    append([]byte(nil), frame[:min(len(frame), 64)]...),
	}
}

// reconfigureBuffer swaps the buffer mechanism at runtime. It refuses while
// units are in use — reclaiming ones included: dropping buffered packets
// silently would lose traffic.
func (d *Datapath) reconfigureBuffer(now time.Duration, cfg openflow.FlowBufferConfig) error {
	if st := d.mech.Stats(now); st.UnitsInUse > 0 {
		return fmt.Errorf("switchd: cannot reconfigure buffer with %d units in use", st.UnitsInUse)
	}
	mech, err := core.NewMechanism(cfg, d.cfg.BufferCapacity, d.cfg.MissSendLen, d.cfg.BufferExpiry)
	if err != nil {
		return err
	}
	d.mech = mech
	d.cfg.Buffer = cfg
	d.SetTelemetry(d.tel)
	d.setReclaimDelay(d.reclaimDelay)
	return nil
}

// HandleFlowMod installs, modifies or deletes rules. A valid BufferID also
// releases the buffered packet(s) through the new rule's actions, per the
// spec's combined flow_mod semantics.
func (d *Datapath) HandleFlowMod(now time.Duration, fm *openflow.FlowMod) (*ControlResult, error) {
	switch fm.Command {
	case openflow.FlowModAdd, openflow.FlowModModify, openflow.FlowModModifyStrict:
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		strict := fm.Command == openflow.FlowModDeleteStrict
		deleted := d.table.Delete(now, &fm.Match, fm.Priority, strict, fm.OutPort)
		d.countRemoved(deleted...)
		return &ControlResult{Msgs: appendFlowRemoved(nil, deleted...)}, nil
	default:
		return replyWith(&openflow.ErrorMsg{
			ErrType: openflow.ErrTypeFlowModFailed,
			Code:    openflow.ErrCodeBadCommand,
		}), nil
	}
	if d.badOutput(fm.Actions) {
		// A rule toward a port the switch does not have would fail every
		// frame it matched: refuse it, and leave any buffered packet where it
		// is.
		return replyWith(badOutPortError()), nil
	}
	if d.deadOutput(fm.Actions) {
		// Refuse to install a rule egressing a down port: the switch-local
		// backstop that keeps a racing (stale-topology) controller from
		// planting a blackhole rule. The buffered packet's fate depends on
		// the mechanism — see refuseBuffered.
		d.refuseBuffered(now, fm.BufferID)
		return replyWith(badOutPortError()), nil
	}
	entry := &flowtable.Entry{
		Match:       fm.Match,
		Priority:    fm.Priority,
		Actions:     fm.Actions,
		Cookie:      fm.Cookie,
		IdleTimeout: time.Duration(fm.IdleTimeout) * time.Second,
		HardTimeout: time.Duration(fm.HardTimeout) * time.Second,
		Flags:       fm.Flags,
	}
	lenBefore := d.table.Len()
	victim, err := d.table.Insert(now, entry)
	if err != nil {
		if errors.Is(err, flowtable.ErrTableFull) {
			d.tableFullRejects++
			return replyWith(&openflow.ErrorMsg{
				ErrType: openflow.ErrTypeFlowModFailed,
				Code:    openflow.ErrCodeAllTablesFull,
			}), nil
		}
		return nil, fmt.Errorf("switchd: flow_mod insert: %w", err)
	}
	if victim == nil && d.table.Len() == lenBefore {
		d.ruleReplacements++
	} else {
		d.ruleInstalls++
	}
	res := &ControlResult{}
	if victim != nil {
		d.countRemoved(*victim)
	}
	if fm.BufferID != openflow.NoBuffer {
		outs, err := d.releaseThrough(now, fm.BufferID, fm.Actions)
		switch {
		case errors.Is(err, core.ErrUnknownBufferID):
			res.Msgs = append(res.Msgs, bufferUnknownError())
		case err != nil:
			return nil, err
		}
		res.Outputs = outs
	}
	if victim != nil {
		res.Msgs = appendFlowRemoved(res.Msgs, *victim)
	}
	return res, nil
}

// HandlePacketOut emits a packet: a buffered one (valid BufferID) or the
// message's own payload.
func (d *Datapath) HandlePacketOut(now time.Duration, po *openflow.PacketOut) (*ControlResult, error) {
	if d.badOutput(po.Actions) {
		return replyWith(badOutPortError()), nil
	}
	if d.deadOutput(po.Actions) {
		d.refuseBuffered(now, po.BufferID)
		if po.BufferID == openflow.NoBuffer && len(po.Data) > 0 {
			// The no-buffer mechanism's packet rides in the message itself;
			// refusing the release loses it just as surely as dropping a unit.
			d.bufDropsDeadPort++
		}
		return replyWith(badOutPortError()), nil
	}
	res := &ControlResult{}
	if po.BufferID != openflow.NoBuffer {
		var err error
		if len(po.Actions) == 0 {
			// Empty action list: drop the buffered packet(s).
			err = d.mech.Drop(now, po.BufferID)
		} else {
			res.Outputs, err = d.releaseThrough(now, po.BufferID, po.Actions)
		}
		if errors.Is(err, core.ErrUnknownBufferID) {
			return replyWith(bufferUnknownError()), nil
		}
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	if len(po.Data) == 0 {
		return res, nil
	}
	outs, err := d.applyActions(now, po.InPort, po.Data, po.Actions, nil)
	if err != nil {
		return nil, err
	}
	d.countTx(outs)
	res.Outputs = outs
	return res, nil
}

// releaseThrough drains the buffer unit and applies the action list to each
// released packet in arrival order.
func (d *Datapath) releaseThrough(now time.Duration, bufferID uint32, actions []openflow.Action) ([]Output, error) {
	released, err := d.mech.Release(now, bufferID)
	if err != nil {
		return nil, err
	}
	var outs []Output
	for _, r := range released {
		if d.tel != nil {
			// Buffer residency: stored-at to released-at, attributed to the
			// packet's flow. Parsing the key back out of the stored bytes only
			// happens on this telemetry-enabled path.
			if key, err := packet.ParseKey(r.Data); err == nil {
				d.tel.Span(telemetry.KindBufferDrain, r.BufferedAt, now,
					telemetry.HashKey(key), bufferID, uint32(len(r.Data)))
				d.tel.FlowResidency(key, now-r.BufferedAt)
			}
		}
		o, err := d.applyActions(now, r.InPort, r.Data, actions, nil)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o...)
	}
	d.countTx(outs)
	return outs, nil
}

func bufferUnknownError() openflow.Message {
	return &openflow.ErrorMsg{
		ErrType: openflow.ErrTypeBadRequest,
		Code:    openflow.ErrCodeBadBufferID,
	}
}

// applyActions runs an OpenFlow 1.0 action list over a frame, appending the
// resulting transmissions to outs (which may be a caller-owned scratch slice
// re-sliced to length 0, or nil for a fresh allocation). Header rewrites
// mutate a copy; output actions emit the current frame state. It is written
// without closures so the steady-state hit path stays allocation-free.
func (d *Datapath) applyActions(_ time.Duration, inPort uint16, frame []byte, actions []openflow.Action, outs []Output) ([]Output, error) {
	cur := frame
	modified := false
	var err error
	for _, a := range actions {
		switch act := a.(type) {
		case *openflow.ActionOutput:
			if outs, err = d.emitAction(outs, inPort, cur, act.Port, 0); err != nil {
				return nil, err
			}
		case *openflow.ActionEnqueue:
			if outs, err = d.emitAction(outs, inPort, cur, act.Port, act.QueueID); err != nil {
				return nil, err
			}
		case *openflow.ActionSetDLSrc:
			cur, modified = ensureFrameCopy(cur, modified)
			copy(cur[6:12], act.Addr[:])
		case *openflow.ActionSetDLDst:
			cur, modified = ensureFrameCopy(cur, modified)
			copy(cur[0:6], act.Addr[:])
		case *openflow.ActionSetNWTOS:
			cur, modified = ensureFrameCopy(cur, modified)
			if len(cur) >= packet.EthernetHeaderLen+packet.IPv4HeaderLen {
				rewriteTOS(cur, act.TOS)
			}
		default:
			return nil, fmt.Errorf("switchd: unsupported action %v", a.ActionType())
		}
	}
	return outs, nil
}

// emitAction appends the transmissions for one output/enqueue action.
// Already-appended outputs keep whatever frame slice they were emitted with:
// a later rewrite copies cur first, so earlier emissions are not affected.
func (d *Datapath) emitAction(outs []Output, inPort uint16, cur []byte, port uint16, queue uint32) ([]Output, error) {
	switch port {
	case openflow.PortInPort:
		if d.portDown[inPort] {
			d.txDownDrops++
			return outs, nil
		}
		outs = append(outs, Output{Port: inPort, Frame: cur, Queue: queue})
	case openflow.PortFlood, openflow.PortAll:
		for p := 1; p <= d.cfg.NumPorts; p++ {
			if uint16(p) == inPort && port == openflow.PortFlood {
				continue
			}
			if d.portDown[p] {
				d.txDownDrops++
				continue
			}
			outs = append(outs, Output{Port: uint16(p), Frame: cur, Queue: queue})
		}
	case openflow.PortController, openflow.PortLocal, openflow.PortNone, openflow.PortTable, openflow.PortNormal:
		// Not meaningful as a datapath output in this testbed; ignore.
	default:
		if port < 1 || int(port) > d.cfg.NumPorts {
			return nil, fmt.Errorf("%w: output port %d", ErrBadPort, port)
		}
		if d.portDown[port] {
			// Physical-layer backstop: a rule that raced past the install-time
			// check (installed before the port died, matched before eviction
			// lands) must not put frames on a dead wire.
			d.txDownDrops++
			return outs, nil
		}
		outs = append(outs, Output{Port: port, Frame: cur, Queue: queue})
	}
	return outs, nil
}

// ensureFrameCopy returns a private copy of cur on the first rewrite so the
// caller's ingress buffer is never mutated.
func ensureFrameCopy(cur []byte, modified bool) ([]byte, bool) {
	if modified {
		return cur, true
	}
	c := make([]byte, len(cur))
	copy(c, cur)
	return c, true
}

// rewriteTOS updates the IPv4 TOS byte and fixes the header checksum.
func rewriteTOS(frame []byte, tos uint8) {
	ip := frame[packet.EthernetHeaderLen:]
	ip[1] = tos
	ip[10], ip[11] = 0, 0
	ihl := int(ip[0]&0x0f) * 4
	if ihl < packet.IPv4HeaderLen || ihl > len(ip) {
		return
	}
	sum := packet.Checksum(ip[:ihl])
	ip[10] = byte(sum >> 8)
	ip[11] = byte(sum)
}

func (d *Datapath) countTx(outs []Output) {
	for _, o := range outs {
		d.txFrames++
		d.txBytes += uint64(len(o.Frame))
	}
}

// NextDeadline reports the earliest instant at which the datapath has timer
// work for Due — the buffer mechanism's next re-request or buffer expiry, or
// the flow table's next rule timeout — and false if it has none.
func (d *Datapath) NextDeadline() (time.Duration, bool) {
	next, ok := d.mech.NextDeadline()
	if exp, expOK := d.table.NextExpiry(); expOK && (!ok || exp < next) {
		next, ok = exp, true
	}
	return next, ok
}

// Due runs the timer work due at now: the mechanism's Tick when its
// deadline has come, and the rule expiry sweep when the table's has. Each
// half runs only when due, so a wake-up that comes early does nothing. It
// returns the re-request packet_ins, which each need a fresh xid, and a
// flow_removed for each expired rule that asked for one, sent with xid 0.
func (d *Datapath) Due(now time.Duration) (rerequests []*openflow.PacketIn, removed []openflow.Message) {
	if next, ok := d.mech.NextDeadline(); ok && next <= now {
		rerequests = d.mech.Tick(now)
	}
	if next, ok := d.table.NextExpiry(); ok && next <= now {
		expired := d.table.Expire(now)
		d.countRemoved(expired...)
		removed = appendFlowRemoved(nil, expired...)
	}
	return rerequests, removed
}

// countRemoved tallies removals into the per-reason ledger.
func (d *Datapath) countRemoved(rs ...flowtable.Removed) {
	for _, r := range rs {
		if int(r.Reason) < len(d.removedByReason) {
			d.removedByReason[r.Reason]++
		}
		if d.tel != nil {
			d.tel.Instant(telemetry.KindFlowEvict, r.At, 0, uint32(r.Reason), uint32(r.Bytes))
		}
	}
}

// appendFlowRemoved appends a flow_removed notification for each removed
// rule that asked for one (OFPFF_SEND_FLOW_REM). The counters come from the
// Removed record's snapshot, taken at the moment of removal: the Entry
// object may have been replaced or mutated between removal and
// notification, and flow_removed must report what the rule forwarded while
// it was installed.
func appendFlowRemoved(msgs []openflow.Message, rs ...flowtable.Removed) []openflow.Message {
	for _, r := range rs {
		if r.Entry.Flags&openflow.FlowModFlagSendFlowRem == 0 {
			continue
		}
		msgs = append(msgs, &openflow.FlowRemoved{
			Match:       r.Entry.Match,
			Cookie:      r.Entry.Cookie,
			Priority:    r.Entry.Priority,
			Reason:      r.Reason,
			DurationSec: uint32(r.Age / time.Second),
			DurationNs:  uint32(r.Age % time.Second),
			IdleTimeout: uint16(r.Entry.IdleTimeout / time.Second),
			PacketCount: r.Packets,
			ByteCount:   r.Bytes,
		})
	}
	return msgs
}

// deadlineTimer keeps a front end's one wake-up for the datapath's deadlines
// (DESIGN.md §18). While armed, the wake-up is at or before every deadline
// the datapath holds: it may come early, never late. Front ends call arm after
// anything that can bring a deadline forward — a miss, a control message, a
// fire, a restart — and never after a table hit, which only moves an idle
// deadline later and so leaves the armed wake-up a valid, early one.
//
// An armed wake-up at the unchanged deadline is left alone; one whose
// deadline moved later is moved, and one whose deadline went away is
// cancelled. One rule serves both front ends: in the simulator a wake-up
// left early would be a spare kernel event, and the virtual clock at the end
// of a run — the denominator of every utilization, load and occupancy mean —
// would see it. A fire can still come early after table hits; it only counts
// and re-arms.
type deadlineTimer struct {
	dp *Datapath
	// set schedules the front end's one wake-up at at (the datapath's clock),
	// replacing any pending one; the wake-up calls fire. stop cancels it.
	set   func(at time.Duration)
	stop  func()
	armed bool
	at    time.Duration
	stats TimerStats
}

// TimerStats counts the work of a switch's deadline timer. A workload whose
// EarlyTicks approach its Ticks is waking for rules that were hit since the
// timer was set; one whose Rearms approach its frame count is re-arming on
// the data path, which a table hit must never do.
type TimerStats struct {
	// Ticks is the number of timer fires handled.
	Ticks uint64
	// EarlyTicks is the fires that found nothing due and only re-armed.
	EarlyTicks uint64
	// Rearms is the number of times the timer was set.
	Rearms uint64
}

// arm brings the wake-up in line with the datapath's earliest deadline.
func (t *deadlineTimer) arm() {
	next, ok := t.dp.NextDeadline()
	if t.armed && ok && next == t.at {
		return
	}
	if !ok {
		t.disarm()
		return
	}
	t.armed, t.at = true, next
	t.stats.Rearms++
	t.set(next)
}

// fire handles the wake-up: it runs what is due (Due) and returns what Due
// returns; the front end ships that and then calls arm, which re-arms from the
// exact next deadline. A fire that finds nothing due — the rule it was set
// for has been hit since, or a Reset raced it — only counts.
func (t *deadlineTimer) fire(now time.Duration) (rerequests []*openflow.PacketIn, removed []openflow.Message) {
	t.armed = false
	t.stats.Ticks++
	if next, ok := t.dp.NextDeadline(); ok && next <= now {
		rerequests, removed = t.dp.Due(now)
	} else {
		t.stats.EarlyTicks++
	}
	return rerequests, removed
}

// disarm cancels the pending wake-up, if any.
func (t *deadlineTimer) disarm() {
	if t.armed {
		t.armed = false
		t.stop()
	}
}

// TableMgmtStats is the datapath's flow-table management ledger. When no
// rules are in flight the ledger closes: Installs == Active + every
// RemovedBy* bucket + Cleared (replacements and rejects are accounted
// separately and do not change the active count).
type TableMgmtStats struct {
	Installs      uint64
	Replacements  uint64
	Rejects       uint64
	Cleared       uint64
	Active        int
	RemovedIdle   uint64
	RemovedHard   uint64
	RemovedDelete uint64
	RemovedEvict  uint64
}

// LedgerGap reports how far the rule ledger is from closing; zero means
// every installed rule is accounted for.
func (s TableMgmtStats) LedgerGap() int64 {
	return int64(s.Installs) - (int64(s.Active) + int64(s.RemovedIdle) +
		int64(s.RemovedHard) + int64(s.RemovedDelete) + int64(s.RemovedEvict) +
		int64(s.Cleared))
}

// TableMgmt reports the flow-table management ledger.
func (d *Datapath) TableMgmt() TableMgmtStats {
	return TableMgmtStats{
		Installs:      d.ruleInstalls,
		Replacements:  d.ruleReplacements,
		Rejects:       d.tableFullRejects,
		Cleared:       d.rulesCleared,
		Active:        d.table.Len(),
		RemovedIdle:   d.removedByReason[openflow.RemovedIdleTimeout],
		RemovedHard:   d.removedByReason[openflow.RemovedHardTimeout],
		RemovedDelete: d.removedByReason[openflow.RemovedDelete],
		RemovedEvict:  d.removedByReason[openflow.RemovedEviction],
	}
}

// Stats reports datapath traffic counters.
func (d *Datapath) Stats() (rxFrames, rxBytes, txFrames, txBytes, misses uint64) {
	return d.rxFrames, d.rxBytes, d.txFrames, d.txBytes, d.misses
}
