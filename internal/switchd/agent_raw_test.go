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

func TestAgentStatsOverTCP(t *testing.T) {
	rc, agent := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2,
		Buffer: openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}})

	// Push one frame through the miss path so counters move.
	var sunk bool
	agent.SetTransmit(func(port uint16, frame []byte) { sunk = true })
	if err := agent.InjectFrame(1, liveFrame(t, "10.1.0.1", 1000)); err != nil {
		t.Fatal(err)
	}
	pi, xid := rc.readType(openflow.TypePacketIn)
	po := &openflow.PacketOut{
		BufferID: pi.(*openflow.PacketIn).BufferID,
		InPort:   1,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	rc.send(po, xid)

	// Poll port stats until the tx counter shows the released frame.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rc.send(&openflow.StatsRequest{StatsType: openflow.StatsPort, PortNo: openflow.PortNone}, 9)
		m, _ := rc.readType(openflow.TypeStatsReply)
		sr := m.(*openflow.StatsReply)
		if len(sr.Ports) == 2 && sr.Ports[1].TxPackets == 1 && sr.Ports[0].RxPackets == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port stats never converged: %+v", sr.Ports)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sunk {
		t.Error("released frame never transmitted")
	}

	rc.send(&openflow.StatsRequest{StatsType: openflow.StatsDesc}, 10)
	m, _ := rc.readType(openflow.TypeStatsReply)
	if m.(*openflow.StatsReply).Desc == nil {
		t.Error("no desc stats")
	}

	rc.send(&openflow.StatsRequest{StatsType: 42}, 11)
	m, _ = rc.readType(openflow.TypeError)
	if em := m.(*openflow.ErrorMsg); em.ErrType != openflow.ErrTypeBadRequest {
		t.Errorf("error = %+v", em)
	}
}

func TestAgentVendorStatsAndReconfigureRefusal(t *testing.T) {
	rc, agent := newRawPair(t, switchd.Config{DatapathID: 1, NumPorts: 2,
		Buffer: openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}})
	agent.SetTransmit(func(uint16, []byte) {})

	// Buffer one packet, leaving a unit in use.
	if err := agent.InjectFrame(1, liveFrame(t, "10.1.0.5", 5000)); err != nil {
		t.Fatal(err)
	}
	rc.readType(openflow.TypePacketIn)

	// Vendor stats: one unit in use.
	rc.send(openflow.EncodeFlowBufferStatsRequest(), 20)
	m, _ := rc.readType(openflow.TypeVendor)
	payload, err := openflow.ParseVendor(m.(*openflow.Vendor))
	if err != nil || payload.Stats == nil {
		t.Fatalf("vendor stats = %+v, %v", payload, err)
	}
	if payload.Stats.UnitsInUse != 1 {
		t.Errorf("units in use = %d, want 1", payload.Stats.UnitsInUse)
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
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if agent.BufferGranularity() == openflow.GranularityFlow {
			t.Fatal("reconfigured while units in use")
		}
		time.Sleep(5 * time.Millisecond)
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
