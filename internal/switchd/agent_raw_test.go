package switchd_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/switchd"
)

// rawController is a bare TCP listener that scripts OpenFlow exchanges with
// one Agent, for exercising the agent's dispatch paths directly.
type rawController struct {
	t    *testing.T
	ln   net.Listener
	conn net.Conn
	r    *openflow.Reader
}

func startRawController(t *testing.T) *rawController {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return &rawController{t: t, ln: ln}
}

func (rc *rawController) accept() {
	rc.t.Helper()
	conn, err := rc.ln.Accept()
	if err != nil {
		rc.t.Fatalf("accept: %v", err)
	}
	rc.conn = conn
	rc.r = openflow.NewReader(conn)
	rc.t.Cleanup(func() { _ = conn.Close() })
}

func (rc *rawController) send(m openflow.Message, xid uint32) {
	rc.t.Helper()
	if err := openflow.WriteMessage(rc.conn, m, xid); err != nil {
		rc.t.Fatalf("write %v: %v", m.Type(), err)
	}
}

func (rc *rawController) read() (openflow.Message, uint32) {
	rc.t.Helper()
	if err := rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		rc.t.Fatal(err)
	}
	m, xid, err := rc.r.ReadMessage()
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return m, xid
}

// readFrame reads the next frame, undecoded.
func (rc *rawController) readFrame() []byte {
	rc.t.Helper()
	if err := rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		rc.t.Fatal(err)
	}
	b, err := rc.r.ReadFrame()
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return b
}

// readType reads messages until one of the wanted type arrives.
func (rc *rawController) readType(want openflow.MsgType) (openflow.Message, uint32) {
	rc.t.Helper()
	for {
		m, xid := rc.read()
		if m.Type() == want {
			return m, xid
		}
	}
}

func newRawPair(t *testing.T, dpCfg switchd.Config) (*rawController, *switchd.Agent) {
	t.Helper()
	rc := startRawController(t)
	agent, err := switchd.NewAgent(switchd.AgentConfig{Datapath: dpCfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	done := make(chan error, 1)
	go func() { done <- agent.Connect(rc.ln.Addr().String()) }()
	rc.accept()
	if err := <-done; err != nil {
		t.Fatalf("Connect: %v", err)
	}
	rc.readType(openflow.TypeHello) // agent's hello
	return rc, agent
}

func TestAgentAnswersHandshakeQueries(t *testing.T) {
	rc, _ := newRawPair(t, switchd.Config{
		DatapathID: 0x77, NumPorts: 3,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 64,
	})
	rc.send(&openflow.Hello{}, 1)
	rc.send(&openflow.FeaturesRequest{}, 2)
	m, xid := rc.readType(openflow.TypeFeaturesReply)
	fr := m.(*openflow.FeaturesReply)
	if fr.DatapathID != 0x77 || fr.NBuffers != 64 || len(fr.Ports) != 3 || xid != 2 {
		t.Errorf("features = %+v xid %d", fr, xid)
	}

	rc.send(&openflow.GetConfigRequest{}, 3)
	m, _ = rc.readType(openflow.TypeGetConfigReply)
	if got := m.(*openflow.GetConfigReply).Config.MissSendLen; got != openflow.DefaultMissSendLen {
		t.Errorf("miss_send_len = %d", got)
	}

	rc.send(&openflow.SetConfig{Config: openflow.SwitchConfig{MissSendLen: 64}}, 4)
	rc.send(&openflow.GetConfigRequest{}, 5)
	m, _ = rc.readType(openflow.TypeGetConfigReply)
	if got := m.(*openflow.GetConfigReply).Config.MissSendLen; got != 64 {
		t.Errorf("miss_send_len after set = %d, want 64", got)
	}

	rc.send(&openflow.BarrierRequest{}, 6)
	if _, xid := rc.readType(openflow.TypeBarrierReply); xid != 6 {
		t.Errorf("barrier xid = %d", xid)
	}

	rc.send(&openflow.EchoRequest{Data: []byte("live")}, 7)
	m, _ = rc.readType(openflow.TypeEchoReply)
	if string(m.(*openflow.EchoReply).Data) != "live" {
		t.Error("echo data mismatch")
	}
}

// TestAgentRefusesReconfigureWithUnitsInUse pins the vendor
// reconfiguration's refusal: a buffered packet keeps the mechanism as it is.
func TestAgentRefusesReconfigureWithUnitsInUse(t *testing.T) {
	rc, agent := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2,
		Buffer: openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}})
	agent.SetTransmit(func(uint16, []byte) {})

	// Buffer one packet, leaving a unit in use.
	if err := agent.InjectFrame(1, liveFrame(t, "10.1.0.5", 5000)); err != nil {
		t.Fatal(err)
	}
	rc.readType(openflow.TypePacketIn)
	if units := agent.Datapath().Mechanism().Stats(0).UnitsInUse; units != 1 {
		t.Fatalf("units in use = %d, want 1", units)
	}

	// Reconfiguration with a buffered packet must be refused (the mechanism
	// stays packet-granularity).
	v, err := openflow.EncodeFlowBufferConfig(openflow.FlowBufferConfig{
		Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.send(v, 21)
	// A barrier is answered after the vendor message has been handled.
	rc.send(&openflow.BarrierRequest{}, 22)
	rc.readType(openflow.TypeBarrierReply)
	if g := agent.BufferGranularity(); g != openflow.GranularityPacket {
		t.Fatalf("reconfigured to %v with a unit in use", g)
	}
}

// TestAgentAnswersUnknownTypesWithBadType pins the agent's answer to
// well-framed messages it does not implement: an OFPT_PORT_MOD and an
// OFPT_STATS_REQUEST each get OFPET_BAD_REQUEST/OFPBRC_BAD_TYPE with the
// request's xid and its first 64 bytes, and the connection keeps serving.
func TestAgentAnswersUnknownTypesWithBadType(t *testing.T) {
	rc, _ := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2})
	frame := func(msgType byte, length int, xid byte) []byte {
		b := make([]byte, length)
		b[0], b[1], b[2], b[3], b[7] = openflow.Version, msgType, byte(length>>8), byte(length), xid
		for i := openflow.HeaderLen; i < length; i++ {
			b[i] = byte(i)
		}
		return b
	}
	portMod := frame(15, 32, 5)   // OFPT_PORT_MOD: header + 24-byte body
	statsReq := frame(16, 100, 6) // OFPT_STATS_REQUEST with a vendor body
	for _, b := range [][]byte{portMod, statsReq} {
		if _, err := rc.conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	rc.send(&openflow.EchoRequest{Data: []byte("still here")}, 7)
	for i, want := range []struct {
		xid  uint32
		data []byte
	}{{5, portMod}, {6, statsReq[:64]}} {
		m, xid := rc.read()
		em, ok := m.(*openflow.ErrorMsg)
		if !ok || em.ErrType != openflow.ErrTypeBadRequest || em.Code != openflow.ErrCodeBadType ||
			xid != want.xid || string(em.Data) != string(want.data) {
			t.Fatalf("answer %d = %T %+v xid %d, want BAD_REQUEST/BAD_TYPE xid %d with the first %d bytes",
				i, m, m, xid, want.xid, len(want.data))
		}
	}
	m, xid := rc.read()
	if er, ok := m.(*openflow.EchoReply); !ok || xid != 7 || string(er.Data) != "still here" {
		t.Fatalf("after the refusals: %T %+v xid %d, want the echo reply", m, m, xid)
	}
}

// TestAgentServesFramesRightAfterConnect pins what Connect promises: it
// returns once HELLO is sent and the read loop runs, before the controller
// has asked for features. A miss injected right then reaches the controller
// as a packet_in ahead of the handshake, and the controller's answer after
// the handshake still releases it.
func TestAgentServesFramesRightAfterConnect(t *testing.T) {
	rc, agent := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2,
		Buffer: openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}})
	egressed := make(chan uint16, 1)
	agent.SetTransmit(func(port uint16, _ []byte) { egressed <- port })
	if err := agent.InjectFrame(1, liveFrame(t, "10.1.0.6", 6000)); err != nil {
		t.Fatal(err)
	}
	m, xid := rc.read()
	pi, ok := m.(*openflow.PacketIn)
	if !ok {
		t.Fatalf("first message after HELLO = %v, want the packet_in", m.Type())
	}
	rc.send(&openflow.FeaturesRequest{}, 1)
	if m, _ := rc.read(); m.Type() != openflow.TypeFeaturesReply {
		t.Fatalf("answer to FEATURES_REQUEST = %v", m.Type())
	}
	rc.send(&openflow.PacketOut{
		BufferID: pi.BufferID, InPort: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, xid)
	select {
	case port := <-egressed:
		if port != 2 {
			t.Fatalf("released on port %d, want 2", port)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the frame injected right after Connect was never released")
	}
}

// TestAgentIdleTimeoutFlowRemovedOverTCP drives the agent's one deadline
// timer with two 1 s idle rules: the one left alone is removed, and its
// flow_removed sent, within a timer resolution of its deadline; the one that
// keeps being hit is never expired, costs the hit path no timer work, and
// goes — again on time — once the hits stop.
func TestAgentIdleTimeoutFlowRemovedOverTCP(t *testing.T) {
	t.Parallel()
	// How late after its deadline a removal may be reported: the sandbox's
	// timers resolve to about 1 ms, a loaded runner under -race needs more.
	const slack = 500 * time.Millisecond
	rc, agent := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2})
	var egressed atomic.Int64
	agent.SetTransmit(func(uint16, []byte) { egressed.Add(1) })

	hot, idle := liveFrame(t, "10.1.0.9", 9000), liveFrame(t, "10.1.0.10", 9000)
	before := time.Now()
	for _, frame := range [][]byte{hot, idle} {
		rc.send(&openflow.FlowMod{
			Match:       mustExact(t, frame),
			Command:     openflow.FlowModAdd,
			Priority:    100,
			IdleTimeout: 1,
			BufferID:    openflow.NoBuffer,
			Flags:       openflow.FlowModFlagSendFlowRem,
			Actions:     []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, 1)
	}
	rc.send(&openflow.BarrierRequest{}, 2)
	rc.readType(openflow.TypeBarrierReply)
	installed := time.Now() // both rules went in between before and installed

	// Hit the hot rule every 20 ms from another goroutine, remembering when.
	var hits, lastBefore, lastAfter atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			lastBefore.Store(time.Now().UnixNano())
			if err := agent.InjectFrame(1, hot); err != nil {
				t.Errorf("InjectFrame: %v", err)
				return
			}
			lastAfter.Store(time.Now().UnixNano())
			hits.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	expectRemoved := func(frame []byte, notBefore, notAfter time.Time) {
		t.Helper()
		m, _ := rc.readType(openflow.TypeFlowRemoved)
		at := time.Now()
		fr := m.(*openflow.FlowRemoved)
		if want := mustExact(t, frame); fr.Reason != openflow.RemovedIdleTimeout || !fr.Match.Equal(&want) {
			t.Errorf("flow_removed reason %d for %v, want idle timeout of %v", fr.Reason, fr.Match.NWSrc, want.NWSrc)
		}
		if at.Before(notBefore) || at.After(notAfter) {
			t.Errorf("flow_removed for %v came %v after the earliest possible instant, window is %v",
				fr.Match.NWSrc, at.Sub(notBefore), notAfter.Sub(notBefore))
		}
	}
	expectRemoved(idle, before.Add(time.Second), installed.Add(time.Second+slack))
	if n := agent.TableLen(); n != 1 {
		t.Errorf("table holds %d rules with the hot one still hit, want 1", n)
	}
	// Let a few more hits land after that tick, then stop: the tick armed for
	// the hot rule's old deadline must find it not due and only re-arm.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-stopped
	expectRemoved(hot, time.Unix(0, lastBefore.Load()).Add(time.Second), time.Unix(0, lastAfter.Load()).Add(time.Second+slack))
	if n := agent.TableLen(); n != 0 {
		t.Errorf("table holds %d rules after both idled out", n)
	}
	if got, want := egressed.Load(), hits.Load(); got != want {
		t.Errorf("%d of %d hits egressed", got, want)
	}
	ts := agent.TimerStats()
	if ts.EarlyTicks == 0 {
		t.Errorf("no tick found the hot rule hit since it was armed: %+v", ts)
	}
	// One arm for the first rule, then at most one per tick — none per hit.
	if ts.Rearms > ts.Ticks+1 {
		t.Errorf("%d hits, timer counters %+v: more re-arms than ticks", hits.Load(), ts)
	}
}

func mustExact(t *testing.T, data []byte) openflow.Match {
	t.Helper()
	f, err := parseHeadersForTest(data)
	if err != nil {
		t.Fatal(err)
	}
	return openflow.ExactMatch(1, f)
}

func TestAgentKeepaliveProbesController(t *testing.T) {
	rc := startRawController(t)
	agent, err := switchd.NewAgent(switchd.AgentConfig{
		Datapath:     switchd.Config{DatapathID: 1, NumPorts: 2},
		EchoInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	done := make(chan error, 1)
	go func() { done <- agent.Connect(rc.ln.Addr().String()) }()
	rc.accept()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rc.readType(openflow.TypeHello)
	// The agent must send keepalive probes; answer the first two.
	for i := 0; i < 2; i++ {
		m, xid := rc.readType(openflow.TypeEchoRequest)
		rc.send(&openflow.EchoReply{Data: m.(*openflow.EchoRequest).Data}, xid)
	}
}

func TestAgentDisconnectCallbackOnDeadController(t *testing.T) {
	rc := startRawController(t)
	discErr := make(chan error, 1)
	agent, err := switchd.NewAgent(switchd.AgentConfig{
		Datapath:     switchd.Config{DatapathID: 1, NumPorts: 2},
		EchoInterval: 20 * time.Millisecond,
		OnDisconnect: func(err error) { discErr <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	done := make(chan error, 1)
	go func() { done <- agent.Connect(rc.ln.Addr().String()) }()
	rc.accept()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rc.readType(openflow.TypeHello)
	// Never answer anything: the keepalive must declare the controller
	// dead within a few intervals.
	select {
	case err := <-discErr:
		if err == nil {
			t.Error("nil disconnect error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never fired for an unresponsive controller")
	}
}

func TestAgentDisconnectCallbackOnClosedConn(t *testing.T) {
	rc := startRawController(t)
	discErr := make(chan error, 1)
	agent, err := switchd.NewAgent(switchd.AgentConfig{
		Datapath:     switchd.Config{DatapathID: 1, NumPorts: 2},
		OnDisconnect: func(err error) { discErr <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	done := make(chan error, 1)
	go func() { done <- agent.Connect(rc.ln.Addr().String()) }()
	rc.accept()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rc.readType(openflow.TypeHello)
	_ = rc.conn.Close() // controller hangs up
	select {
	case <-discErr:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never fired for a closed connection")
	}
}
