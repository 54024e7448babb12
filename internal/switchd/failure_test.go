package switchd

import (
	"testing"
	"time"

	"sdnbuffer/internal/core"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/sim"
)

func installTo(t *testing.T, dp *Datapath, frame []byte, outPort uint16, flags uint16) *ControlResult {
	t.Helper()
	parsed, err := packet.ParseHeaders(frame)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := dp.HandleFlowMod(0, &openflow.FlowMod{
		Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
		Priority: 10, BufferID: openflow.NoBuffer, Flags: flags,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: outPort}},
	})
	if err != nil {
		t.Fatalf("HandleFlowMod: %v", err)
	}
	return res
}

// TestSetPortDownEvictsAndRefusesInstalls pins the switch-local failure
// protocol: taking a port down evicts the rules egressing it, and installs
// toward the dead port are refused with OFPET_BAD_ACTION/BAD_OUT_PORT until
// the port returns.
func TestSetPortDownEvictsAndRefusesInstalls(t *testing.T) {
	dp := newDP(t, openflow.GranularityNone, 0)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	if res := installTo(t, dp, frame, 2, 0); reply(res) != nil {
		t.Fatalf("healthy install refused: %+v", reply(res))
	}
	if dp.Table().Len() != 1 {
		t.Fatalf("table len = %d", dp.Table().Len())
	}

	msgs, err := dp.SetPortDown(time.Millisecond, 2, true)
	if err != nil {
		t.Fatalf("SetPortDown: %v", err)
	}
	if got := dp.TableMgmt().RemovedDelete; got != 1 || dp.Table().Len() != 0 {
		t.Fatalf("eviction removed %d rules, table %d", got, dp.Table().Len())
	}
	// The evicted rule did not ask for flow_removed: only the port_status.
	if ps, ok := msgs[len(msgs)-1].(*openflow.PortStatus); len(msgs) != 1 || !ok ||
		ps.Desc.PortNo != 2 || ps.Desc.State&openflow.PortStateLinkDown == 0 {
		t.Fatalf("port-down messages = %+v, want one link-down port_status", msgs)
	}
	if !dp.PortDown(2) || dp.PortDown(1) {
		t.Fatal("port state wrong after SetPortDown")
	}
	// Idempotent: no second eviction, no error.
	if again, err := dp.SetPortDown(2*time.Millisecond, 2, true); err != nil || len(again) != 0 {
		t.Fatalf("repeat SetPortDown: %v, messages %+v", err, again)
	}

	res := installTo(t, dp, frame, 2, 0)
	em, ok := reply(res).(*openflow.ErrorMsg)
	if !ok || em.ErrType != openflow.ErrTypeBadAction || em.Code != openflow.ErrCodeBadOutPort {
		t.Fatalf("install to dead port replied %+v", reply(res))
	}
	if dp.Table().Len() != 0 {
		t.Fatal("refused rule reached the table")
	}
	refusals, _, _, _ := dp.FailureStats()
	if refusals != 1 {
		t.Fatalf("deadPortRefusals = %d", refusals)
	}

	if _, err := dp.SetPortDown(3*time.Millisecond, 2, false); err != nil {
		t.Fatalf("port up: %v", err)
	}
	if res := installTo(t, dp, frame, 2, 0); reply(res) != nil {
		t.Fatalf("install after recovery refused: %+v", reply(res))
	}
	if _, err := dp.SetPortDown(0, 9, true); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

// TestRefusedBufferMechanismAware pins the fate of a buffered packet whose
// install is refused for a dead egress port: a flow-granularity unit stays
// parked (the re-request timer recovers it after reroute), a
// packet-granularity unit is destroyed to a named count.
func TestRefusedBufferMechanismAware(t *testing.T) {
	for _, tc := range []struct {
		g         openflow.BufferGranularity
		wantDrops uint64
		wantLive  int
	}{
		{openflow.GranularityFlow, 0, 1},
		{openflow.GranularityPacket, 1, 0},
	} {
		dp := newDP(t, tc.g, 16)
		frame := testFrame(t, "10.1.0.1", 1000, 200)
		res, err := dp.HandleFrame(0, 1, frame)
		if err != nil || res.Miss == nil || res.Miss.PacketIn == nil {
			t.Fatalf("%v: miss = %+v, %v", tc.g, res, err)
		}
		id := res.Miss.PacketIn.BufferID
		if id == openflow.NoBuffer {
			t.Fatalf("%v: no buffer id", tc.g)
		}
		if _, err := dp.SetPortDown(0, 2, true); err != nil {
			t.Fatal(err)
		}
		parsed, _ := packet.ParseHeaders(frame)
		cres, err := dp.HandleFlowMod(time.Millisecond, &openflow.FlowMod{
			Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 10, BufferID: id,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reply(cres).(*openflow.ErrorMsg); !ok {
			t.Fatalf("%v: reply = %+v", tc.g, reply(cres))
		}
		pool := dp.Mechanism().(interface{ Pool() *core.Pool }).Pool()
		if got := pool.Live(); got != tc.wantLive {
			t.Errorf("%v: %d live units, want %d", tc.g, got, tc.wantLive)
		}
		_, bufDrops, _, _ := dp.FailureStats()
		if bufDrops != tc.wantDrops {
			t.Errorf("%v: bufDropsDeadPort = %d, want %d", tc.g, bufDrops, tc.wantDrops)
		}
	}
}

// TestEmitDownPortBackstop pins the physical-layer backstop: a surviving
// rule (flood) skips dead ports with a named count instead of transmitting
// into the void.
func TestEmitDownPortBackstop(t *testing.T) {
	dp, err := NewDatapath(Config{DatapathID: 1, NumPorts: 3})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	parsed, _ := packet.ParseHeaders(frame)
	if _, err := dp.HandleFlowMod(0, &openflow.FlowMod{
		Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
		Priority: 10, BufferID: openflow.NoBuffer,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.SetPortDown(0, 3, true); err != nil {
		t.Fatal(err)
	}
	res, err := dp.HandleFrame(time.Millisecond, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("flood outputs = %+v, want just port 2", res.Outputs)
	}
	_, _, txDown, _ := dp.FailureStats()
	if txDown != 1 {
		t.Fatalf("txDownDrops = %d", txDown)
	}
}

// TestCrashWipesState pins crash semantics: table and buffers vanish with
// accounted loss, and the datapath is fully usable after Restart.
func TestCrashWipesState(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 300)
	if res, err := dp.HandleFrame(0, 1, frame); err != nil || !res.Miss.Buffered {
		t.Fatalf("miss not buffered: %+v, %v", res, err)
	}
	installTo(t, dp, testFrame(t, "10.1.0.2", 2000, 64), 2, 0)

	loss := dp.Crash(time.Millisecond)
	if loss.Units != 1 || loss.Packets != 1 || loss.Bytes <= 0 {
		t.Fatalf("crash loss = %+v", loss)
	}
	if !dp.Crashed() || dp.Table().Len() != 0 {
		t.Fatalf("crashed=%v table=%d", dp.Crashed(), dp.Table().Len())
	}
	pool := dp.Mechanism().(interface{ Pool() *core.Pool }).Pool()
	if pool.Live() != 0 {
		t.Fatalf("%d live units after crash", pool.Live())
	}
	_, _, _, ledger := dp.FailureStats()
	if ledger != loss {
		t.Fatalf("crash ledger %+v != loss %+v", ledger, loss)
	}

	dp.Restart()
	if dp.Crashed() {
		t.Fatal("still crashed after Restart")
	}
	if res, err := dp.HandleFrame(2*time.Millisecond, 1, frame); err != nil || res.Miss == nil {
		t.Fatalf("post-restart frame: %+v, %v", res, err)
	}
}

// TestSimSwitchPortStatus pins detection: flipping a port emits one
// port_status over the modeled control path (plus flow_removed for flagged
// evictions), repeats are silent, and recovery announces link-up.
func TestSimSwitchPortStatus(t *testing.T) {
	k := sim.New(1)
	cfg := DefaultSimConfig()
	cfg.Datapath = Config{DatapathID: 1, NumPorts: 2}
	sw, err := NewSimSwitch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []*openflow.PortStatus
	var flowRemoved int
	sw.SetControlSender(func(msg []byte) {
		m, _, err := openflow.Decode(msg)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		switch ps := m.(type) {
		case *openflow.PortStatus:
			cp := *ps
			statuses = append(statuses, &cp)
		case *openflow.FlowRemoved:
			flowRemoved++
		}
	})
	installTo(t, sw.Datapath(), testFrame(t, "10.1.0.1", 1000, 64), 2, openflow.FlowModFlagSendFlowRem)

	if err := sw.SetPortDown(2, true); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetPortDown(2, true); err != nil { // repeat: silent
		t.Fatal(err)
	}
	k.Run()
	if len(statuses) != 1 || flowRemoved != 1 {
		t.Fatalf("%d port_status, %d flow_removed; want 1, 1", len(statuses), flowRemoved)
	}
	ps := statuses[0]
	if ps.Reason != openflow.PortReasonModify || ps.Desc.PortNo != 2 || ps.Desc.State&openflow.PortStateLinkDown == 0 {
		t.Fatalf("port_status = %+v", ps)
	}

	if err := sw.SetPortDown(2, false); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(statuses) != 2 || statuses[1].Desc.State&openflow.PortStateLinkDown != 0 {
		t.Fatalf("link-up status missing or wrong: %+v", statuses)
	}
	if err := sw.SetPortDown(9, true); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

// TestSimSwitchCrashGates pins chassis loss: traffic and control arriving
// while crashed are dropped and counted, work in flight dies with the
// chassis, and the switch serves misses again after Restart.
func TestSimSwitchCrashGates(t *testing.T) {
	k, sw, fc, egress := newSimPair(t, openflow.GranularityPacket, 16)
	frame := testFrame(t, "10.1.0.1", 1000, 300)

	// A frame is mid-pipeline when the power goes: its CPU job must die —
	// and be counted like a boundary drop, so both the in-flight frame and
	// the one arriving while crashed land in the same named ledger entry.
	sw.Ingest(1, frame)
	sw.Crash()
	sw.Ingest(1, frame)
	sw.DeliverControl(openflow.MustEncode(&openflow.EchoRequest{}, 7))
	k.Run()
	if len(fc.seen) != 0 {
		t.Fatalf("crashed switch shipped %d packet_ins", len(fc.seen))
	}
	rx, ctl := sw.CrashDrops()
	if rx != 2 || ctl != 1 {
		t.Fatalf("crash drops = %d rx, %d ctl; want 2, 1", rx, ctl)
	}

	sw.Restart()
	sw.Ingest(1, frame)
	k.Run()
	if len(fc.seen) != 1 || len(*egress) != 1 {
		t.Fatalf("post-restart: %d packet_ins, %d egress", len(fc.seen), len(*egress))
	}
}

// TestDatapathRefusesOutputToMissingPort pins the install-time check on
// output ports: a rule toward a port the switch does not have would fail
// every frame it matched, so the flow_mod is refused with
// OFPET_BAD_ACTION/BAD_OUT_PORT, as is such a packet_out, and the buffered
// packet stays where it is.
func TestDatapathRefusesOutputToMissingPort(t *testing.T) {
	dp := newDP(t, openflow.GranularityPacket, 4)
	frame := testFrame(t, "10.1.0.1", 1000, 64)
	res, err := dp.HandleFrame(0, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	id := res.Miss.PacketIn.BufferID
	parsed, _ := packet.ParseHeaders(frame)
	toPort9 := []openflow.Action{&openflow.ActionOutput{Port: 9}}
	for _, m := range []openflow.Message{
		&openflow.FlowMod{Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 10, BufferID: id, Actions: toPort9},
		&openflow.PacketOut{BufferID: id, InPort: 1, Actions: toPort9},
	} {
		cres, err := dp.Control(time.Millisecond, m, 1)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		if em, ok := reply(cres).(*openflow.ErrorMsg); !ok || em.ErrType != openflow.ErrTypeBadAction ||
			em.Code != openflow.ErrCodeBadOutPort || len(cres.Outputs) != 0 {
			t.Fatalf("%v toward port 9: %+v", m.Type(), cres)
		}
	}
	if dp.Table().Len() != 0 {
		t.Error("the rule toward port 9 reached the table")
	}
	if units := dp.Mechanism().Stats(time.Millisecond).UnitsInUse; units != 1 {
		t.Errorf("%d units in use, want the refused packet still buffered", units)
	}
}
