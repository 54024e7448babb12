package controller

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnbuffer/internal/openflow"
)

// fakeSwitch is a raw TCP client that speaks just enough OpenFlow to
// exercise the server.
type fakeSwitch struct {
	t    *testing.T
	conn net.Conn
	r    *openflow.Reader
}

func dialFakeSwitch(t *testing.T, addr string) *fakeSwitch {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &fakeSwitch{t: t, conn: conn, r: openflow.NewReader(conn)}
}

func (f *fakeSwitch) send(m openflow.Message, xid uint32) {
	f.t.Helper()
	if err := openflow.WriteMessage(f.conn, m, xid); err != nil {
		f.t.Fatalf("write %v: %v", m.Type(), err)
	}
}

func (f *fakeSwitch) read() (openflow.Message, uint32) {
	f.t.Helper()
	if err := f.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		f.t.Fatal(err)
	}
	m, xid, err := f.r.ReadMessage()
	if err != nil {
		f.t.Fatalf("read: %v", err)
	}
	return m, xid
}

// handshake drives the switch half of the handshake: consume HELLO and
// FEATURES_REQUEST, answer with HELLO and FEATURES_REPLY.
func (f *fakeSwitch) handshake(dpid uint64) {
	f.t.Helper()
	if m, _ := f.read(); m.Type() != openflow.TypeHello {
		f.t.Fatalf("first server message = %v, want HELLO", m.Type())
	}
	if m, _ := f.read(); m.Type() != openflow.TypeFeaturesRequest {
		f.t.Fatalf("second server message = %v, want FEATURES_REQUEST", m.Type())
	}
	f.send(&openflow.Hello{}, 1)
	f.send(&openflow.FeaturesReply{DatapathID: dpid, NBuffers: 64}, 2)
}

// readEOF reads until the server hangs up, failing the test if it does not
// within 5 seconds.
func (f *fakeSwitch) readEOF() {
	f.t.Helper()
	if err := f.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		f.t.Fatal(err)
	}
	for {
		if _, _, err := f.r.ReadMessage(); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				f.t.Fatal("server never hung up")
			}
			return
		}
	}
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	app, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestServerHandshakeSequence(t *testing.T) {
	srv := startServer(t, ServerConfig{
		MissSendLen: 200,
		Buffer: &openflow.FlowBufferConfig{
			Granularity:        openflow.GranularityFlow,
			RerequestTimeoutMs: 30,
		},
	})
	fs := dialFakeSwitch(t, srv.Addr())
	// The config push is features-gated: SET_CONFIG and VENDOR(config) only
	// flow once the switch has produced its FEATURES_REPLY.
	fs.handshake(7)
	wantTypes := []openflow.MsgType{openflow.TypeSetConfig, openflow.TypeVendor}
	for i, want := range wantTypes {
		m, _ := fs.read()
		if m.Type() != want {
			t.Fatalf("post-features message %d = %v, want %v", i, m.Type(), want)
		}
		switch v := m.(type) {
		case *openflow.SetConfig:
			if v.Config.MissSendLen != 200 {
				t.Errorf("miss_send_len = %d, want 200", v.Config.MissSendLen)
			}
		case *openflow.Vendor:
			payload, err := openflow.ParseVendor(v)
			if err != nil || payload.Config == nil {
				t.Fatalf("vendor payload = %+v, %v", payload, err)
			}
			if payload.Config.Granularity != openflow.GranularityFlow ||
				payload.Config.RerequestTimeoutMs != 30 {
				t.Errorf("pushed config = %+v", payload.Config)
			}
		}
	}
	// The registry saw the datapath come ready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conns := srv.Conns()
		if len(conns) == 1 && conns[0].State == StateReady && conns[0].DatapathID == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never showed ready datapath 7: %+v", conns)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerAnswersPacketInAndEcho(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(9)

	fs.send(&openflow.EchoRequest{Data: []byte("ping")}, 3)
	m, xid := fs.read()
	er, ok := m.(*openflow.EchoReply)
	if !ok || string(er.Data) != "ping" || xid != 3 {
		t.Fatalf("echo reply = %T %v xid %d", m, m, xid)
	}

	fs.send(testPacketIn(t, 42, 128), 4)
	m1, x1 := fs.read()
	m2, x2 := fs.read()
	if m1.Type() != openflow.TypeFlowMod || m2.Type() != openflow.TypePacketOut {
		t.Fatalf("replies = %v, %v", m1.Type(), m2.Type())
	}
	if x1 != 4 || x2 != 4 {
		t.Errorf("xids = %d/%d, want 4", x1, x2)
	}
	if po := m2.(*openflow.PacketOut); po.BufferID != 42 {
		t.Errorf("packet_out buffer id = %d", po.BufferID)
	}
}

func TestServerToleratesNotificationTraffic(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Notifications and replies the server consumes without answering.
	fs.send(&openflow.BarrierReply{}, 1)
	fs.send(&openflow.ErrorMsg{ErrType: 1, Code: 7}, 2)
	fs.send(&openflow.FlowRemoved{Reason: openflow.RemovedIdleTimeout}, 3)
	fs.send(&openflow.StatsReply{StatsType: openflow.StatsTable}, 4)
	fs.send(&openflow.PortStatus{Reason: openflow.PortReasonModify}, 5)
	// The connection must still be alive: an echo round trip works.
	fs.send(&openflow.EchoRequest{Data: []byte("x")}, 6)
	if m, _ := fs.read(); m.Type() != openflow.TypeEchoReply {
		t.Fatalf("connection dead after notifications: %v", m.Type())
	}
}

func TestServerDropsBrokenApp(t *testing.T) {
	// A packet_in with garbage payload makes the app error; the server
	// closes that connection but stays up for others.
	srv := startServer(t, ServerConfig{})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	fs.send(&openflow.PacketIn{BufferID: 1, Data: []byte{1, 2}}, 1)
	fs.readEOF()
	// A new switch can still connect.
	fs2 := dialFakeSwitch(t, srv.Addr())
	if m, _ := fs2.read(); m.Type() != openflow.TypeHello {
		t.Fatal("server no longer accepting connections")
	}
}

func TestServerCloseIdempotentAndAddr(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	if srv.Addr() == "" {
		t.Error("Addr empty after Listen")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Second close must not panic or hang.
	_ = srv.Close()
}

func TestServerRejectsNilApp(t *testing.T) {
	if _, err := NewServer(ServerConfig{}, nil); err == nil {
		t.Error("NewServer(nil app) succeeded")
	}
}

func TestServerGarbageBytesDisconnect(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Bad version, valid length: rejected immediately.
	if _, err := fs.conn.Write([]byte{0xff, 0x00, 0x00, 0x08, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	fs.readEOF()
	if got := srv.Stats().FramingErrors; got != 1 {
		t.Errorf("framing errors = %d, want 1", got)
	}
}

// TestServerFramingErrorsIsolatedPerConnection pins the live framing
// robustness contract: truncated, oversized and garbage frames each kill
// only the connection that sent them, while a healthy peer's round trips
// keep working throughout.
func TestServerFramingErrorsIsolatedPerConnection(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	healthy := dialFakeSwitch(t, srv.Addr())
	healthy.handshake(1)

	garbage := [][]byte{
		{0xff, 0x00, 0x00, 0x08, 0, 0, 0, 0},                   // bad version
		{0x01, 0x00, 0x00, 0x04, 0, 0, 0, 0},                   // length < header
		{0x01, 0x02, 0xff, 0xff, 0, 0, 0, 1, 0xde, 0xad},       // 65535-byte claim
		{0x01, 0x0a, 0x00, 0x40, 0, 0, 0, 2, 0x01, 0x02, 0x03}, // truncated body, then hangup
	}
	for i, b := range garbage {
		bad := dialFakeSwitch(t, srv.Addr())
		bad.handshake(uint64(100 + i))
		if _, err := bad.conn.Write(b); err != nil {
			t.Fatal(err)
		}
		_ = bad.conn.Close() // for the truncated-body case: cut mid-frame
		// The healthy connection answers an echo within the same window.
		healthy.send(&openflow.EchoRequest{Data: []byte{byte(i)}}, uint32(10+i))
		if m, _ := healthy.read(); m.Type() != openflow.TypeEchoReply {
			t.Fatalf("healthy conn broken after garbage case %d: %v", i, m.Type())
		}
	}
	// Eventually only the healthy connection remains registered.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d conns", srv.ConnCount())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerHandshakeDeadlineEvicts(t *testing.T) {
	srv := startServer(t, ServerConfig{HandshakeTimeout: 100 * time.Millisecond})
	fs := dialFakeSwitch(t, srv.Addr())
	// Never answer the features request: the server must hang up.
	start := time.Now()
	fs.readEOF()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("eviction took %v, want ~100ms", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().HandshakeTimeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handshake timeout never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerKeepaliveEvictsDeadPeer(t *testing.T) {
	srv := startServer(t, ServerConfig{
		EchoInterval: 30 * time.Millisecond,
		EchoMisses:   2,
	})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Go silent. After 2×30ms without inbound traffic the server evicts.
	start := time.Now()
	fs.readEOF()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("dead-peer eviction took %v", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().KeepaliveEvictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("keepalive eviction never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerKeepaliveSparesActivePeer(t *testing.T) {
	srv := startServer(t, ServerConfig{
		EchoInterval: 25 * time.Millisecond,
		EchoMisses:   2,
	})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Keep answering probes for 10 intervals: the connection must survive.
	stop := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(stop) {
		if err := fs.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		m, xid, err := fs.r.ReadMessage()
		if err != nil {
			t.Fatalf("evicted while answering probes: %v", err)
		}
		if req, ok := m.(*openflow.EchoRequest); ok {
			fs.send(&openflow.EchoReply{Data: req.Data}, xid)
		}
	}
	if srv.Stats().KeepaliveEvictions != 0 {
		t.Errorf("keepalive evicted a live peer")
	}
}

func TestServerMaxConnsAdmission(t *testing.T) {
	srv := startServer(t, ServerConfig{MaxConns: 1})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Second connection: closed at accept without any OpenFlow traffic.
	fs2 := dialFakeSwitch(t, srv.Addr())
	fs2.readEOF()
	if got := srv.Stats().AdmissionRejected; got != 1 {
		t.Errorf("admission rejected = %d, want 1", got)
	}
	if lvl := srv.PressureLevel(); lvl != 2 {
		t.Errorf("pressure level = %d, want 2 at the cap", lvl)
	}
	// Free the slot: a new connection is admitted again.
	_ = fs.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed conn never deregistered")
		}
		time.Sleep(time.Millisecond)
	}
	fs3 := dialFakeSwitch(t, srv.Addr())
	if m, _ := fs3.read(); m.Type() != openflow.TypeHello {
		t.Fatalf("post-eviction connect got %v", m.Type())
	}
}

func TestServerAcceptRateLimit(t *testing.T) {
	srv := startServer(t, ServerConfig{AcceptRate: 0.5, AcceptBurst: 1})
	// First connection consumes the only token.
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Burst of follow-ups: all rate-limited (refill is 0.5/s).
	for i := 0; i < 3; i++ {
		rejected := dialFakeSwitch(t, srv.Addr())
		rejected.readEOF()
	}
	if got := srv.Stats().RateLimited; got != 3 {
		t.Errorf("rate limited = %d, want 3", got)
	}
}

// TestServerOnPressureTransitions pins the exported admission pressure
// signal: filling the registry to the cap raises the level through 1 to 2,
// and draining lowers it back to 0.
func TestServerOnPressureTransitions(t *testing.T) {
	var mu sync.Mutex
	var levels []int
	srv := startServer(t, ServerConfig{
		MaxConns: 4,
		OnPressure: func(level int) {
			mu.Lock()
			levels = append(levels, level)
			mu.Unlock()
		},
	})
	conns := make([]*fakeSwitch, 0, 4)
	for i := 0; i < 4; i++ {
		fs := dialFakeSwitch(t, srv.Addr())
		fs.handshake(uint64(i + 1))
		conns = append(conns, fs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.PressureLevel() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pressure = %d with registry full", srv.PressureLevel())
		}
		time.Sleep(time.Millisecond)
	}
	for _, fs := range conns {
		_ = fs.conn.Close()
	}
	for srv.PressureLevel() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pressure = %d after drain", srv.PressureLevel())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(levels) < 2 {
		t.Errorf("OnPressure transitions = %v, want at least rise and fall", levels)
	}
}

// flakyListener wraps a listener, injecting transient errors before real
// accepts — the EMFILE-style failure that used to kill the accept loop.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Load() > 0 {
		l.failures.Add(-1)
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// TestServerAcceptErrorRetry pins the satellite fix: transient Accept
// errors back off and retry instead of killing the listener forever.
func TestServerAcceptErrorRetry(t *testing.T) {
	app, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{}, app)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.failures.Store(3)
	srv.ServeListener(fl)
	t.Cleanup(func() { _ = srv.Close() })

	// Despite three straight accept errors, a real connection gets served.
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	fs.send(&openflow.EchoRequest{Data: []byte("alive")}, 5)
	if m, _ := fs.read(); m.Type() != openflow.TypeEchoReply {
		t.Fatalf("connection after accept errors got %v", m.Type())
	}
}

// pipeListener serves pre-connected net.Pipe conns — zero kernel buffering,
// so a peer that stops reading wedges the server's writer instantly. This
// is the deterministic harness for the slow-consumer policy.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// dial hands the server one end of a pipe and returns the peer end.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	return l.dialWrapped(t, func(c net.Conn) net.Conn { return c })
}

// dialWrapped is dial with the server's end of the pipe passed through wrap.
func (l *pipeListener) dialWrapped(t *testing.T, wrap func(net.Conn) net.Conn) net.Conn {
	t.Helper()
	server, client := net.Pipe()
	select {
	case l.conns <- wrap(server):
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop never picked up the pipe conn")
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func startPipeServer(t *testing.T, cfg ServerConfig) (*Server, *pipeListener) {
	t.Helper()
	app, err := NewReactiveForwarder(ForwarderConfig{Routes: []Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Port: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	srv.ServeListener(ln)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln
}

// pipeHandshake drives the switch half of the handshake over a raw conn.
func pipeHandshake(t *testing.T, conn net.Conn, dpid uint64) *openflow.Reader {
	t.Helper()
	r := openflow.NewReader(conn)
	for _, want := range []openflow.MsgType{openflow.TypeHello, openflow.TypeFeaturesRequest} {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		m, _, err := r.ReadMessage()
		if err != nil || m.Type() != want {
			t.Fatalf("handshake read = %v, %v (want %v)", m, err, want)
		}
	}
	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := openflow.WriteMessage(conn, &openflow.Hello{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := openflow.WriteMessage(conn, &openflow.FeaturesReply{DatapathID: dpid}, 2); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestServerWedgedPeerReadsStillHandled is the satellite regression: a peer
// whose socket accepts no writes (wedged reader) must not stall the
// server's handling of that same peer's subsequent inbound messages — the
// old direct-write path deadlocked here, because the echo reply blocked the
// dispatch loop under writeMu.
func TestServerWedgedPeerReadsStillHandled(t *testing.T) {
	srv, ln := startPipeServer(t, ServerConfig{
		WriteQueue:   4,
		StallTimeout: 30 * time.Second, // far beyond the test: only shedding may save us
	})
	conn := ln.dial(t)
	pipeHandshake(t, conn, 1)
	// Stop reading. Send an echo burst: every request wants a reply, the
	// pipe accepts no writes, so the writer wedges on the first flush and
	// the queue fills; replies past the bound are shed rather than blocking
	// the dispatch loop.
	var sent int
	for i := 0; i < 40; i++ {
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := openflow.WriteMessage(conn, &openflow.EchoRequest{Data: []byte{byte(i)}}, uint32(10+i)); err != nil {
			break
		}
		sent++
	}
	if sent < 40 {
		t.Fatalf("only %d/40 echo requests accepted: server read path stalled behind its own writes", sent)
	}
	// The registry proves every inbound message was dispatched (handshake
	// pair + 40 echoes) while the writer was wedged the whole time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conns := srv.Conns()
		if len(conns) == 1 && conns[0].MsgsIn >= 42 {
			if conns[0].Shed == 0 {
				t.Error("nothing shed despite a wedged writer")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbound dispatch stalled: %+v", conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// writeDeadlineDeafConn ignores write deadlines: a blocked write returns
// only when the conn is closed.
type writeDeadlineDeafConn struct{ net.Conn }

func (c writeDeadlineDeafConn) SetWriteDeadline(time.Time) error { return nil }

// TestServerStallEvictsOnFlowMod pins the other half of the slow-consumer
// policy: flow_mods are never shed — when the queue cannot take one within
// StallTimeout, the connection is evicted instead. The writer's flush
// deadline is also StallTimeout; the server's pipe end ignores write
// deadlines so that only the enqueue stall timer can evict.
func TestServerStallEvictsOnFlowMod(t *testing.T) {
	srv, ln := startPipeServer(t, ServerConfig{
		WriteQueue:   2,
		StallTimeout: 50 * time.Millisecond,
	})
	conn := ln.dialWrapped(t, func(c net.Conn) net.Conn { return writeDeadlineDeafConn{c} })
	pipeHandshake(t, conn, 1)
	// Wedge and push packet_ins until the server hangs up. The writer's
	// first batch can absorb up to 64 replies before its flush blocks for
	// good; after that the queue fills, and the first flow_mod that cannot
	// be enqueued must evict within ~StallTimeout.
	pi := testPacketIn(t, openflow.NoBuffer, 256)
	for i := 0; i < 200; i++ {
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := openflow.WriteMessage(conn, pi, uint32(10+i)); err != nil {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().StallEvictions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wedged peer never stall-evicted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("evicted conn still registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// packetOutApp answers every packet_in with a lone packet_out to port 2:
// one that references the switch's buffer when the packet_in was buffered,
// one carrying the frame itself when it was not.
type packetOutApp struct{}

func (packetOutApp) Name() string { return "packet-out" }

func (packetOutApp) HandlePacketInConn(conn int, pi *openflow.PacketIn, _ uint32) ([]Directed, error) {
	return []Directed{{Conn: conn, Msg: Release(pi, []openflow.Action{&openflow.ActionOutput{Port: 2}})}}, nil
}

// wedgeWatchConn is writeDeadlineDeafConn that also counts the writes in
// progress, so a test can tell when the server's writer is stuck in one.
type wedgeWatchConn struct {
	writeDeadlineDeafConn
	inWrite *atomic.Int32
}

func (c wedgeWatchConn) Write(p []byte) (int, error) {
	c.inWrite.Add(1)
	defer c.inWrite.Add(-1)
	return c.Conn.Write(p)
}

// TestServerNeverShedsPayloadPacketOut pins the packet_out half of the
// slow-consumer policy against a wedged peer with a full queue: a packet_out
// that references a switch buffer is shed, but one carrying its frame
// (BufferID == NoBuffer) is the only copy of that frame, so it stalls and
// evicts the connection after StallTimeout instead of being dropped.
func TestServerNeverShedsPayloadPacketOut(t *testing.T) {
	srv, err := NewServer(ServerConfig{WriteQueue: 2, StallTimeout: 50 * time.Millisecond}, packetOutApp{})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	srv.ServeListener(ln)
	t.Cleanup(func() { _ = srv.Close() })
	var inWrite atomic.Int32
	conn := ln.dialWrapped(t, func(c net.Conn) net.Conn { return wedgeWatchConn{writeDeadlineDeafConn{c}, &inWrite} })
	pipeHandshake(t, conn, 1)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	write := func(m openflow.Message, xid uint32) {
		t.Helper()
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := openflow.WriteMessage(conn, m, xid); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	// The handshake's write finishes once its bytes are read; from then on
	// nothing reads the pipe, so the writer's next write blocks for good.
	waitFor("handshake write never finished", func() bool { return inWrite.Load() == 0 })

	// Buffered packet_ins until the writer is stuck and the full queue has
	// shed a buffered packet_out behind it.
	xid := uint32(10)
	buffered := func() {
		t.Helper()
		if xid == 400 {
			t.Fatalf("queue never wedged: %+v", srv.Stats())
		}
		write(testPacketIn(t, xid, 128), xid)
		xid++
	}
	for inWrite.Load() == 0 {
		buffered()
	}
	for shed := srv.Stats().Shed; srv.Stats().Shed == shed; {
		buffered()
	}
	// The pipe hands a message over only once the read loop asks for it,
	// and the loop dispatches each message before reading the next; so once
	// this no-op hello is taken, every packet_in before it has been answered.
	write(&openflow.Hello{}, xid)
	st := srv.Stats()
	if st.StallEvictions != 0 || srv.ConnCount() != 1 {
		t.Fatalf("shedding a buffered packet_out evicted the peer: %+v", st)
	}

	write(testPacketIn(t, openflow.NoBuffer, 256), xid+1)
	waitFor("payload-carrying packet_out never stall-evicted the wedged peer",
		func() bool { return srv.Stats().StallEvictions != 0 })
	if got := srv.Stats().Shed; got != st.Shed {
		t.Errorf("Shed = %d after the payload-carrying packet_out, want %d: its frame was dropped", got, st.Shed)
	}
}

// TestServerSlowPeerDoesNotDelayOthers is the acceptance-criteria isolation
// bound: with one peer fully wedged (writer blocked, queue saturated), a
// healthy connection's packet_in→packet_out round trip must stay fast —
// far under the StallTimeout that governs the wedged peer.
func TestServerSlowPeerDoesNotDelayOthers(t *testing.T) {
	srv, ln := startPipeServer(t, ServerConfig{
		WriteQueue:   4,
		StallTimeout: 10 * time.Second,
	})
	// Wedged peer on a pipe.
	wedged := ln.dial(t)
	pipeHandshake(t, wedged, 1)
	pi := testPacketIn(t, openflow.NoBuffer, 256)
	for i := 0; i < 20; i++ {
		_ = wedged.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := openflow.WriteMessage(wedged, pi, uint32(10+i)); err != nil {
			break
		}
	}
	// Healthy peer on another pipe: 50 round trips, each bounded.
	healthy := ln.dial(t)
	r := pipeHandshake(t, healthy, 2)
	var worst time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		_ = healthy.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := openflow.WriteMessage(healthy, testPacketIn(t, uint32(100+i), 128), uint32(100+i)); err != nil {
			t.Fatalf("healthy write %d: %v", i, err)
		}
		for msgs := 0; msgs < 2; {
			_ = healthy.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, _, err := r.ReadMessage()
			if err != nil {
				t.Fatalf("healthy read %d: %v", i, err)
			}
			if m.Type() == openflow.TypeFlowMod || m.Type() == openflow.TypePacketOut {
				msgs++
			}
		}
		if rtt := time.Since(start); rtt > worst {
			worst = rtt
		}
	}
	if worst > 2*time.Second {
		t.Errorf("worst healthy round trip = %v with a wedged neighbor (limit 2s)", worst)
	}
	if srv.ConnCount() < 2 {
		t.Errorf("healthy or wedged conn dropped early: %d registered", srv.ConnCount())
	}
}

// TestServerDrainFlushesQueuedReplies pins graceful drain: replies queued
// but unwritten when Close begins still reach the wire before teardown.
func TestServerDrainFlushesQueuedReplies(t *testing.T) {
	srv := startServer(t, ServerConfig{DrainTimeout: 2 * time.Second})
	fs := dialFakeSwitch(t, srv.Addr())
	fs.handshake(1)
	// Park replies in flight, then close the server concurrently with the
	// reads: everything already accepted must be delivered.
	const n = 20
	for i := 0; i < n; i++ {
		fs.send(testPacketIn(t, uint32(100+i), 128), uint32(100+i))
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	got := 0
	for got < 2*n {
		if err := fs.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		m, _, err := fs.r.ReadMessage()
		if err != nil {
			t.Fatalf("stream ended after %d/%d reply messages: %v", got, 2*n, err)
		}
		if m.Type() == openflow.TypeFlowMod || m.Type() == openflow.TypePacketOut {
			got++
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServerRejectsNegativeWriteQueue pins the single write path: every
// connection gets a bounded queue and a writer goroutine, so a negative
// depth is a configuration error, while 0 still selects the default.
func TestServerRejectsNegativeWriteQueue(t *testing.T) {
	app, err := NewReactiveForwarder(ForwarderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(ServerConfig{WriteQueue: -1}, app); err == nil {
		t.Error("NewServer accepted WriteQueue -1")
	}
	srv, err := NewServer(ServerConfig{}, app)
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.WriteQueue != 512 {
		t.Errorf("default write queue = %d, want 512", srv.cfg.WriteQueue)
	}
}

// datapathApp records the server's connection lifecycle calls. It answers a
// packet_in with a flow_mod for a connection that does not exist plus a
// packet_out on the requester, and refuses datapath 99.
type datapathApp struct {
	mu       sync.Mutex
	attached map[int]uint64
	detached []int
}

func (*datapathApp) Name() string { return "datapath-recorder" }

func (a *datapathApp) AttachDatapath(conn int, dpid uint64) error {
	if dpid == 99 {
		return errors.New("unknown datapath 99")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attached[conn] = dpid
	return nil
}

func (a *datapathApp) DetachConn(conn int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.detached = append(a.detached, conn)
}

func (a *datapathApp) HandlePacketInConn(conn int, pi *openflow.PacketIn, _ uint32) ([]Directed, error) {
	a.mu.Lock()
	_, ok := a.attached[conn]
	a.mu.Unlock()
	if !ok {
		return nil, errors.New("packet_in on a connection with no datapath")
	}
	out := []openflow.Action{&openflow.ActionOutput{Port: 2}}
	return []Directed{
		{Conn: 1 << 30, Msg: &openflow.FlowMod{Command: openflow.FlowModAdd, BufferID: openflow.NoBuffer, Actions: out}},
		{Conn: conn, Msg: Release(pi, out)},
	}, nil
}

// lockedLog is a log sink safe for the server's goroutines.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestServerConnectionLifecycleReachesApp pins the live half of the one app
// surface: a packet_in that beats the FEATURES_REPLY waits for it, the app
// learns each connection's datapath and may refuse it, a reply for a
// connection that is gone is dropped without evicting the requester, an
// evicted connection is forgotten, and a switch whose FEATURES_REPLY lands
// after Close began is still attached, so its held packet_in is answered
// during the drain.
func TestServerConnectionLifecycleReachesApp(t *testing.T) {
	app := &datapathApp{attached: make(map[int]uint64)}
	var logged lockedLog
	srv, err := NewServer(ServerConfig{Logger: log.New(&logged, "", 0), DrainTimeout: 5 * time.Second}, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	fs := dialFakeSwitch(t, srv.Addr())
	fs.read() // HELLO
	fs.read() // FEATURES_REQUEST
	fs.send(&openflow.Hello{}, 1)
	fs.send(testPacketIn(t, 42, 128), 5)
	fs.send(&openflow.FeaturesReply{DatapathID: 7}, 2)
	m, xid := fs.read()
	if po, ok := m.(*openflow.PacketOut); !ok || po.BufferID != 42 || xid != 5 {
		t.Fatalf("reply = %T %+v xid %d, want the held packet_in's packet_out", m, m, xid)
	}
	fs.send(&openflow.EchoRequest{}, 6)
	if m, _ := fs.read(); m.Type() != openflow.TypeEchoReply {
		t.Fatalf("requester dead after a reply to a gone connection: %v", m.Type())
	}
	conns := srv.Conns()
	if len(conns) != 1 {
		t.Fatalf("registry = %+v", conns)
	}
	id := int(conns[0].ID)
	app.mu.Lock()
	dpid := app.attached[id]
	app.mu.Unlock()
	if dpid != 7 {
		t.Fatalf("conn %d attached as datapath %d, want 7", id, dpid)
	}

	refused := dialFakeSwitch(t, srv.Addr())
	refused.handshake(99)
	refused.readEOF()

	_ = fs.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		app.mu.Lock()
		detached := slices.Clone(app.detached)
		app.mu.Unlock()
		if len(detached) == 2 && slices.Contains(detached, id) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted connections never detached: %v", detached)
		}
		time.Sleep(time.Millisecond)
	}

	// Close while a switch is still handshaking with a packet_in held. Echo
	// round trips keep its drain from going quiet until the FEATURES_REPLY
	// and the echo behind it are answered.
	late := dialFakeSwitch(t, srv.Addr())
	late.read() // HELLO
	late.read() // FEATURES_REQUEST
	late.send(&openflow.Hello{}, 1)
	late.send(testPacketIn(t, 43, 128), 5)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for draining := false; !draining; {
		late.send(&openflow.EchoRequest{}, 6)
		if m, _ := late.read(); m.Type() != openflow.TypeEchoReply {
			t.Fatalf("handshaking switch got %v", m.Type())
		}
		for _, ci := range srv.Conns() {
			draining = draining || ci.State == StateDraining
		}
	}
	late.send(&openflow.FeaturesReply{DatapathID: 8}, 2)
	late.send(&openflow.EchoRequest{}, 77)
	answered := false
	for {
		m, xid := late.read()
		if po, ok := m.(*openflow.PacketOut); ok && po.BufferID == 43 && xid == 5 {
			answered = true
		}
		if m.Type() == openflow.TypeEchoReply && xid == 77 {
			break
		}
	}
	if !answered {
		t.Error("held packet_in not answered when the handshake ended during the drain")
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logged.String(), "app:") {
		t.Errorf("drain evicted on an app error:\n%s", logged.String())
	}
}
