package switchd

import (
	"fmt"
	"time"

	"sdnbuffer/internal/core"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
)

// This file is the datapath's data-plane failure surface (DESIGN.md §16):
// per-port link state with rule eviction, whole-switch crash/restart with
// flow-table and buffer loss, and the accounting that lets the fabric close
// its drop ledger. The datapath owns the protocol consequences, the
// flow_removed and port_status messages included; ingestion gating and
// shipping the messages live one layer up in SimSwitch/Agent.

// SetPortDown flips one port's link state and returns what the switch owes
// the controller for it, all sent with xid 0: a flow_removed for each
// flagged rule the change evicted, then a port_status announcing the new
// state (none while crashed). Taking a port down evicts every rule that
// outputs to it — subsequent traffic for those destinations misses the
// table and re-enters the buffer mechanism instead of draining into a dead
// wire. Bringing a port back up is state-only: rules reappear via the
// normal controller path. Idempotent; repeated transitions to the same
// state change and return nothing, so they do not re-notify.
func (d *Datapath) SetPortDown(now time.Duration, port uint16, down bool) ([]openflow.Message, error) {
	if port < 1 || int(port) > d.cfg.NumPorts {
		return nil, fmt.Errorf("%w: port %d of %d", ErrBadPort, port, d.cfg.NumPorts)
	}
	if d.portDown[port] == down {
		return nil, nil
	}
	d.portDown[port] = down
	var msgs []openflow.Message
	if down {
		removed := d.table.DeleteByOutPort(now, port, openflow.RemovedDelete)
		d.countRemoved(removed...)
		msgs = appendFlowRemoved(msgs, removed...)
	}
	if !d.crashed {
		msgs = append(msgs, &openflow.PortStatus{
			Reason: openflow.PortReasonModify,
			Desc:   d.PhyPortDesc(port),
		})
	}
	return msgs, nil
}

// PortDown reports one port's link state (false for out-of-range ports).
func (d *Datapath) PortDown(port uint16) bool {
	return int(port) < len(d.portDown) && d.portDown[port]
}

// PhyPortDesc builds the ofp_phy_port description of one port, reflecting
// its current link state — shared by FEATURES_REPLY and port_status.
func (d *Datapath) PhyPortDesc(port uint16) openflow.PhyPort {
	p := openflow.PhyPort{
		PortNo: port,
		HWAddr: packet.MAC{0x02, 0, 0, 0, 0, byte(port)},
		Name:   fmt.Sprintf("eth%d", port),
	}
	if d.PortDown(port) {
		p.State = openflow.PortStateLinkDown
	}
	return p
}

// Crash wipes the switch as a power loss would: the flow table empties with
// no flow_removed notifications, every buffered packet is destroyed, and
// any outage-learned MAC state is gone. The loss is returned and folded
// into the crash ledger. Port link state deliberately survives — the wire
// is a property of the cable, not the chassis.
func (d *Datapath) Crash(now time.Duration) core.BufferLoss {
	d.crashed = true
	d.rulesCleared += uint64(d.table.Clear())
	d.macTable = nil
	var loss core.BufferLoss
	if ad, ok := d.mech.(core.AllDropper); ok {
		loss = ad.DropAll(now)
	}
	d.crashBufferLoss.Add(loss)
	return loss
}

// Restart brings a crashed datapath back with its post-crash (empty) state.
func (d *Datapath) Restart() { d.crashed = false }

// Crashed reports whether the datapath is between Crash and Restart. The
// owner gates ingress and control delivery on it; the datapath itself only
// records the state.
func (d *Datapath) Crashed() bool { return d.crashed }

// FailureStats reports the data-plane failure counters: installs or
// releases refused because they egress a down port, buffered packets
// destroyed by such refusals, transmissions suppressed toward down ports,
// and the cumulative crash buffer loss.
func (d *Datapath) FailureStats() (deadPortRefusals, bufDropsDeadPort, txDownDrops uint64, crashLoss core.BufferLoss) {
	return d.deadPortRefusals, d.bufDropsDeadPort, d.txDownDrops, d.crashBufferLoss
}

// deadOutput reports whether any action outputs to a concretely-numbered
// down port. Flood/all actions are not refused — emitAction simply skips
// the dead ports.
func (d *Datapath) deadOutput(actions []openflow.Action) bool {
	for _, a := range actions {
		if port, ok := outputPort(a); ok && port >= 1 && int(port) <= d.cfg.NumPorts && d.portDown[port] {
			return true
		}
	}
	return false
}

// badOutput reports whether any action outputs to a port the switch does not
// have: neither one of its 1..NumPorts nor a reserved port.
func (d *Datapath) badOutput(actions []openflow.Action) bool {
	for _, a := range actions {
		if port, ok := outputPort(a); ok && port < openflow.PortInPort && (port < 1 || int(port) > d.cfg.NumPorts) {
			return true
		}
	}
	return false
}

func outputPort(a openflow.Action) (uint16, bool) {
	switch act := a.(type) {
	case *openflow.ActionOutput:
		return act.Port, true
	case *openflow.ActionEnqueue:
		return act.Port, true
	}
	return 0, false
}

// refuseBuffered settles a buffered packet whose install or release was
// refused for a dead egress port, and counts the refusal. The outcome is
// mechanism-aware: a unit the mechanism will re-offer (flow granularity)
// stays parked — the re-request timer raises the miss again after the
// controller has rerouted, and the packets survive the failure. A unit
// with no timer (packet granularity) is destroyed now, to a named count,
// rather than leaking until expiry.
func (d *Datapath) refuseBuffered(now time.Duration, bufferID uint32) {
	d.deadPortRefusals++
	if bufferID == openflow.NoBuffer {
		return
	}
	if rr, ok := d.mech.(core.Rerequester); ok && rr.WillRerequest(bufferID) {
		return
	}
	if pm, ok := d.mech.(interface{ Pool() *core.Pool }); ok {
		if u, live := pm.Pool().Peek(bufferID); live {
			d.bufDropsDeadPort += uint64(len(u.Packets))
		}
	}
	_ = d.mech.Drop(now, bufferID)
}

func badOutPortError() openflow.Message {
	return &openflow.ErrorMsg{
		ErrType: openflow.ErrTypeBadAction,
		Code:    openflow.ErrCodeBadOutPort,
	}
}
