package switchd_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
)

// switchStep is one scripted stimulus, applied to either front end: a frame
// injected on a port, a control message from the controller, or a port
// going down.
type switchStep struct {
	name     string
	inject   []byte // a frame on port 1
	control  []byte // an encoded controller-to-switch message
	portDown uint16
}

// switchAnswer is what a switch did in one step: the messages it sent the
// controller and the frames it put on its ports, in order.
type switchAnswer struct {
	msgs   [][]byte
	egress []string
}

// TestSimAndLiveSwitchAnswerWithTheSameBytes is the switch-side twin of
// internal/topo's TestSimAndLiveAnswerWithTheSameBytes: one scripted
// exchange, two front ends of the one Datapath — the simulated SimSwitch (the
// kernel run to idle after each stimulus) and the live Agent over a raw TCP
// controller. Every reply, notification and egress frame must be
// byte-identical, with two exceptions: the xid of a switch-originated
// packet_in, which each front end numbers from its own counter, and the
// duration of a flow_removed, which each front end measures on its own clock
// (virtual time against the wall clock).
func TestSimAndLiveSwitchAnswerWithTheSameBytes(t *testing.T) {
	cfg := switchd.Config{
		DatapathID: 1, NumPorts: 2, TableCapacity: 2, EvictionPolicy: flowtable.EvictNone,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 16,
	}
	missed := liveFrame(t, "10.1.0.1", 1000)
	rule := func(frame []byte, bufferID uint32, flags uint16) []byte {
		parsed, err := packet.ParseHeaders(frame)
		if err != nil {
			t.Fatal(err)
		}
		return openflow.MustEncode(&openflow.FlowMod{
			Match: openflow.ExactMatch(1, parsed), Command: openflow.FlowModAdd,
			Priority: 100, BufferID: bufferID, Flags: flags,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, 20)
	}
	portMod := make([]byte, 32) // OFPT_PORT_MOD, a type the switch does not implement
	portMod[0], portMod[1], portMod[3], portMod[7] = openflow.Version, 15, 32, 31
	steps := []switchStep{
		{name: "miss", inject: missed},
		// The first buffer id of a fresh pool is 1 in both front ends.
		{name: "flow_mod with buffer_id", control: rule(missed, 1, openflow.FlowModFlagSendFlowRem)},
		{name: "second rule", control: rule(liveFrame(t, "10.1.0.2", 1000), openflow.NoBuffer, 0)},
		{name: "flow_mod into a full table", control: rule(liveFrame(t, "10.1.0.3", 1000), openflow.NoBuffer, 0)},
		{name: "packet_out for an unknown buffer", control: openflow.MustEncode(&openflow.PacketOut{
			BufferID: 999, InPort: 1, Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, 21)},
		{name: "barrier", control: openflow.MustEncode(&openflow.BarrierRequest{}, 22)},
		{name: "echo", control: openflow.MustEncode(&openflow.EchoRequest{Data: []byte("same")}, 23)},
		{name: "features", control: openflow.MustEncode(&openflow.FeaturesRequest{}, 24)},
		{name: "set_config", control: openflow.MustEncode(&openflow.SetConfig{
			Config: openflow.SwitchConfig{MissSendLen: 64}}, 25)},
		{name: "get_config", control: openflow.MustEncode(&openflow.GetConfigRequest{}, 26)},
		{name: "miss after set_config", inject: liveFrame(t, "10.1.0.4", 1000)},
		{name: "unknown type", control: portMod},
		{name: "port down", portDown: 2},
	}
	sim := simAnswers(t, cfg, steps)
	live := liveAnswers(t, cfg, steps)
	for i, st := range steps {
		if len(sim[i].msgs) != len(live[i].msgs) {
			t.Errorf("%s: sim sent %d messages, live %d", st.name, len(sim[i].msgs), len(live[i].msgs))
			continue
		}
		for j := range sim[i].msgs {
			if s, l := masked(sim[i].msgs[j]), masked(live[i].msgs[j]); !bytes.Equal(s, l) {
				t.Errorf("%s: message %d differs:\nsim  %x\nlive %x", st.name, j, s, l)
			}
		}
		if s, l := fmt.Sprint(sim[i].egress), fmt.Sprint(live[i].egress); s != l {
			t.Errorf("%s: egress differs:\nsim  %s\nlive %s", st.name, s, l)
		}
	}
	// The script reaches every answer it is there for.
	want := []int{1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 2}
	for i, st := range steps {
		if len(sim[i].msgs) != want[i] {
			t.Errorf("%s: %d messages, the script expects %d", st.name, len(sim[i].msgs), want[i])
		}
	}
	// SET_CONFIG changes what the switch does, not only what GET_CONFIG
	// reports: the next buffered miss is truncated at the new length.
	if msgs := sim[10].msgs; len(msgs) == 1 {
		m, _, err := openflow.Decode(msgs[0])
		if pi, ok := m.(*openflow.PacketIn); err != nil || !ok || len(pi.Data) != 64 {
			t.Errorf("miss after set_config: got %v (%v), want a packet_in carrying 64 bytes", m, err)
		}
	}
	if len(sim[1].egress) != 1 {
		t.Errorf("the buffered miss egressed %d times, want once", len(sim[1].egress))
	}
}

// masked zeroes what the two front ends cannot agree on: a packet_in's xid
// and a flow_removed's duration.
func masked(msg []byte) []byte {
	out := append([]byte(nil), msg...)
	switch openflow.MsgType(out[1]) {
	case openflow.TypePacketIn:
		clear(out[4:8])
	case openflow.TypeFlowRemoved:
		clear(out[openflow.HeaderLen+openflow.MatchLen+12 : openflow.HeaderLen+openflow.MatchLen+20])
	}
	return out
}

func egressed(port uint16, frame []byte) string { return fmt.Sprintf("%d:%x", port, frame) }

func simAnswers(t *testing.T, cfg switchd.Config, steps []switchStep) []switchAnswer {
	t.Helper()
	k := sim.New(1)
	sc := switchd.DefaultSimConfig()
	sc.Datapath = cfg
	sw, err := switchd.NewSimSwitch(k, sc)
	if err != nil {
		t.Fatal(err)
	}
	var cur switchAnswer
	sw.SetControlSender(func(msg []byte) { cur.msgs = append(cur.msgs, msg) })
	sw.SetTransmit(func(port uint16, frame []byte) { cur.egress = append(cur.egress, egressed(port, frame)) })
	answers := make([]switchAnswer, len(steps))
	for i, st := range steps {
		switch {
		case st.inject != nil:
			sw.Ingest(1, st.inject)
		case st.control != nil:
			sw.DeliverControl(st.control)
		default:
			if err := sw.SetPortDown(st.portDown, true); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		answers[i], cur = cur, switchAnswer{}
	}
	return answers
}

func liveAnswers(t *testing.T, cfg switchd.Config, steps []switchStep) []switchAnswer {
	t.Helper()
	rc, agent := newRawPair(t, cfg)
	var mu sync.Mutex
	var egress []string
	agent.SetTransmit(func(port uint16, frame []byte) {
		mu.Lock()
		egress = append(egress, egressed(port, frame))
		mu.Unlock()
	})
	const fence = 0xfe0ce
	answers := make([]switchAnswer, len(steps))
	for i, st := range steps {
		switch {
		case st.inject != nil:
			if err := agent.InjectFrame(1, st.inject); err != nil {
				t.Fatal(err)
			}
		case st.control != nil:
			if _, err := rc.conn.Write(st.control); err != nil {
				t.Fatal(err)
			}
		default:
			if err := agent.SetPortDown(st.portDown, true); err != nil {
				t.Fatal(err)
			}
		}
		// The agent answers in order: everything the step caused is on the
		// wire, and every frame it released is out, before the reply to a
		// barrier sent after it.
		rc.send(&openflow.BarrierRequest{}, fence)
		for {
			msg := rc.readFrame()
			if openflow.MsgType(msg[1]) == openflow.TypeBarrierReply && binary.BigEndian.Uint32(msg[4:8]) == fence {
				break
			}
			answers[i].msgs = append(answers[i].msgs, msg)
		}
		mu.Lock()
		answers[i].egress, egress = egress, nil
		mu.Unlock()
	}
	return answers
}
