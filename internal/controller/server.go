package controller

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/openflow"
)

// ConnState is one switch connection's position in the server's lifecycle
// state machine.
type ConnState uint8

// Connection lifecycle states. A connection is born in StateHandshake with a
// read deadline; the switch's FEATURES_REPLY promotes it to StateReady
// (clearing the deadline, pushing config, arming keepalive); Close moves
// every connection through StateDraining (flush the outbound queue, accept no
// new work) before StateClosed. Eviction jumps straight to StateClosed.
const (
	StateHandshake ConnState = iota
	StateReady
	StateDraining
	StateClosed
)

// String names the state for logs and registry dumps.
func (s ConnState) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ErrWriteStall reports that a connection's outbound queue stayed full past
// StallTimeout while holding a message that must not be shed — the
// slow-consumer eviction cause, inspectable with errors.Is on log output and
// test hooks.
var ErrWriteStall = errors.New("controller: outbound queue stalled")

// errConnClosed is the enqueue result on a connection already torn down.
var errConnClosed = errors.New("controller: connection closed")

// ServerConfig configures the live controller daemon.
type ServerConfig struct {
	// Buffer, when non-nil, is pushed to every switch reaching StateReady as
	// a FlowBufferConfig vendor message — how an operator enables the
	// flow-granularity mechanism fleet-wide.
	Buffer *openflow.FlowBufferConfig
	// MissSendLen is pushed via SET_CONFIG once a switch is ready (0 = spec
	// default).
	MissSendLen uint16
	// Logger receives connection lifecycle messages; nil silences them.
	Logger *log.Logger

	// HandshakeTimeout bounds how long a connection may sit in
	// StateHandshake before the server evicts it: the switch must deliver
	// its FEATURES_REPLY within this window (default 10s).
	HandshakeTimeout time.Duration
	// EchoInterval arms controller-side keepalive: every interval the
	// server probes each ready switch with ECHO_REQUEST, and a switch whose
	// traffic (any inbound message counts) goes silent for
	// EchoMisses×EchoInterval is evicted as dead. 0 disables keepalive.
	EchoInterval time.Duration
	// EchoMisses is how many silent intervals mark a peer dead (default 3).
	EchoMisses int

	// WriteQueue bounds each connection's outbound message queue, serviced
	// by a per-connection writer goroutine that batches queued messages
	// into single writes. 0 means the default (512); negative values are
	// rejected.
	WriteQueue int
	// StallTimeout is the slow-consumer bound: an enqueue of a non-sheddable
	// message (flow_mod and all other control traffic except packet_out and
	// keepalive probes) that cannot make room within this window evicts the
	// connection, and each batched write gets it as its deadline
	// (default 2s).
	StallTimeout time.Duration

	// MaxConns caps concurrent switch connections; further accepts are
	// closed immediately (0 = unlimited).
	MaxConns int
	// AcceptRate limits accepted connections per second through a token
	// bucket of AcceptBurst tokens, so a reconnect storm is paced instead
	// of thundering into the handshake path (0 = unlimited).
	AcceptRate  float64
	AcceptBurst int

	// DrainTimeout bounds the graceful drain on Close: per-connection
	// outbound queues get this long to flush before the sockets are torn
	// down (default 2s).
	DrainTimeout time.Duration

	// OnPressure, when set, is called on every admission pressure level
	// transition (0 = normal, 1 = above ¾ of MaxConns, 2 = at the cap or
	// actively rejecting), so apps can react by shedding work. Called from
	// server goroutines; must not block.
	OnPressure func(level int)
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.EchoMisses <= 0 {
		cfg.EchoMisses = 3
	}
	if cfg.WriteQueue == 0 {
		cfg.WriteQueue = 512
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.AcceptRate > 0 && cfg.AcceptBurst <= 0 {
		cfg.AcceptBurst = 16
	}
	return cfg
}

// ServerStats aggregates the daemon's lifetime counters across all
// connections, live and dead.
type ServerStats struct {
	Accepted           uint64 // connections admitted and registered
	AdmissionRejected  uint64 // closed at accept: MaxConns reached
	RateLimited        uint64 // closed at accept: token bucket empty
	HandshakeTimeouts  uint64 // evicted: no FEATURES_REPLY in time
	KeepaliveEvictions uint64 // evicted: silent past EchoMisses×EchoInterval
	StallEvictions     uint64 // evicted: non-sheddable enqueue stalled
	WriteErrors        uint64 // evicted: socket write failed or timed out
	FramingErrors      uint64 // evicted: undecodable/oversized/garbage frame
	MsgsIn             uint64 // messages dispatched from switches
	MsgsOut            uint64 // messages written to switches
	Shed               uint64 // sheddable messages (buffered packet_out, echo) dropped by full queues
}

// ConnInfo is a registry snapshot of one switch connection.
type ConnInfo struct {
	ID         uint64
	Remote     string
	State      ConnState
	DatapathID uint64 // 0 until FEATURES_REPLY
	QueueLen   int
	QueueCap   int
	MsgsIn     uint64
	MsgsOut    uint64
	Shed       uint64
	Connected  time.Time
}

// Server is the live-mode controller daemon: a TCP listener speaking
// OpenFlow to real switches, running an App — the Floodlight role in the
// paper's Fig. 1, hardened to hold thousands of concurrent switch
// connections (ROADMAP item 3).
//
// Every connection goroutine reaches the app through appMu, so the app sees
// one caller at a time, as under SimController. A Directed reply's Conn is a
// connection id (ConnInfo.ID).
type Server struct {
	cfg   ServerConfig
	app   App
	appMu sync.Mutex

	ln     net.Listener
	mu     sync.Mutex
	conns  map[uint64]*switchConn
	nextID uint64
	wg     sync.WaitGroup
	closed bool

	// Accept-rate token bucket (guarded by mu).
	tokens     float64
	lastRefill time.Time

	pressure atomic.Int32

	accepted          atomic.Uint64
	admissionRejected atomic.Uint64
	rateLimited       atomic.Uint64
	handshakeTimeouts atomic.Uint64
	keepaliveEvicted  atomic.Uint64
	stallEvicted      atomic.Uint64
	writeErrors       atomic.Uint64
	framingErrors     atomic.Uint64
	msgsIn            atomic.Uint64
	msgsOut           atomic.Uint64
	shed              atomic.Uint64
}

// queuedMsg is one message with its xid: outbound awaiting the writer
// goroutine, or inbound awaiting the handshake.
type queuedMsg struct {
	m   openflow.Message
	xid uint32
}

// switchConn is one connected switch: its socket, lifecycle state, and
// bounded outbound queue.
type switchConn struct {
	id     uint64
	server *Server
	conn   net.Conn

	out       chan queuedMsg // bounded outbound queue
	stop      chan struct{}  // closed exactly once on teardown
	connected time.Time

	// Serve goroutine only: whether the app knows this connection's
	// datapath, and the app-bound messages that arrived before it did.
	attached bool
	held     []queuedMsg

	mu       sync.Mutex
	state    ConnState
	dpid     uint64
	lastRecv time.Time
	echoT    *time.Timer
	closing  bool // stop already closed

	msgsIn  atomic.Uint64
	msgsOut atomic.Uint64
	shed    atomic.Uint64
}

// NewServer builds a live controller around an App.
func NewServer(cfg ServerConfig, app App) (*Server, error) {
	if app == nil {
		return nil, fmt.Errorf("controller: nil app")
	}
	if cfg.WriteQueue < 0 {
		return nil, fmt.Errorf("controller: negative write queue depth %d", cfg.WriteQueue)
	}
	return &Server{
		cfg:   cfg.withDefaults(),
		app:   app,
		conns: make(map[uint64]*switchConn),
	}, nil
}

// Listen binds the listener and starts accepting. Use addr ":0" to pick an
// ephemeral port; Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("controller: listen %s: %w", addr, err)
	}
	s.ServeListener(ln)
	return nil
}

// ServeListener starts accepting switch connections on an existing listener
// — the seam for socket activation and for tests injecting accept errors.
// The server takes ownership: Close closes it.
func (s *Server) ServeListener(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr reports the bound listener address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// Stats reports the daemon's aggregate lifetime counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:           s.accepted.Load(),
		AdmissionRejected:  s.admissionRejected.Load(),
		RateLimited:        s.rateLimited.Load(),
		HandshakeTimeouts:  s.handshakeTimeouts.Load(),
		KeepaliveEvictions: s.keepaliveEvicted.Load(),
		StallEvictions:     s.stallEvicted.Load(),
		WriteErrors:        s.writeErrors.Load(),
		FramingErrors:      s.framingErrors.Load(),
		MsgsIn:             s.msgsIn.Load(),
		MsgsOut:            s.msgsOut.Load(),
		Shed:               s.shed.Load(),
	}
}

// ConnCount reports the number of registered connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Conns snapshots the connection registry.
func (s *Server) Conns() []ConnInfo {
	s.mu.Lock()
	conns := make([]*switchConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	infos := make([]ConnInfo, 0, len(conns))
	for _, sc := range conns {
		infos = append(infos, sc.info())
	}
	return infos
}

// PressureLevel reports the admission pressure ladder rung: 0 normal, 1
// above ¾ of MaxConns, 2 at the cap (or while actively rejecting). Always 0
// with no MaxConns configured.
func (s *Server) PressureLevel() int { return int(s.pressure.Load()) }

func (sc *switchConn) info() ConnInfo {
	sc.mu.Lock()
	state := sc.state
	dpid := sc.dpid
	sc.mu.Unlock()
	return ConnInfo{
		ID:         sc.id,
		Remote:     sc.conn.RemoteAddr().String(),
		State:      state,
		DatapathID: dpid,
		QueueLen:   len(sc.out),
		QueueCap:   cap(sc.out),
		MsgsIn:     sc.msgsIn.Load(),
		MsgsOut:    sc.msgsOut.Load(),
		Shed:       sc.shed.Load(),
		Connected:  sc.connected,
	}
}

// admit applies connection admission: the concurrent-connection cap and the
// accept-rate token bucket. Returns a non-empty reject reason when the
// connection must be closed.
func (s *Server) admit(now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max := s.cfg.MaxConns; max > 0 && len(s.conns) >= max {
		s.admissionRejected.Add(1)
		s.setPressureLocked(2)
		return "connection cap reached"
	}
	if rate := s.cfg.AcceptRate; rate > 0 {
		if s.lastRefill.IsZero() {
			s.tokens = float64(s.cfg.AcceptBurst)
		} else {
			s.tokens += now.Sub(s.lastRefill).Seconds() * rate
			if burst := float64(s.cfg.AcceptBurst); s.tokens > burst {
				s.tokens = burst
			}
		}
		s.lastRefill = now
		if s.tokens < 1 {
			s.rateLimited.Add(1)
			s.setPressureLocked(2)
			return "accept rate limited"
		}
		s.tokens--
	}
	return ""
}

// setPressureLocked recomputes the occupancy-driven pressure level (callers
// hold s.mu) and fires OnPressure on transitions. floor forces at least the
// given level — how an active rejection reports rung 2 even though the
// registry may sit just under the cap.
func (s *Server) setPressureLocked(floor int32) {
	level := floor
	if max := s.cfg.MaxConns; max > 0 {
		n := len(s.conns)
		switch {
		case n >= max:
			if level < 2 {
				level = 2
			}
		case n*4 >= max*3:
			if level < 1 {
				level = 1
			}
		}
	}
	if old := s.pressure.Swap(level); old != level && s.cfg.OnPressure != nil {
		go s.cfg.OnPressure(int(level))
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (EMFILE, ECONNABORTED, …): a single
			// error must not kill the listener for good. Back off with a cap
			// and retry; Close unblocks us via the listener error above.
			s.logf("controller: accept: %v (retrying in %v)", err, backoff)
			timer := time.NewTimer(backoff)
			<-timer.C
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if reason := s.admit(time.Now()); reason != "" {
			s.logf("controller: rejecting %s: %s", conn.RemoteAddr(), reason)
			_ = conn.Close()
			continue
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.nextID++
		sc := &switchConn{
			id:        s.nextID,
			server:    s,
			conn:      conn,
			connected: time.Now(),
			lastRecv:  time.Now(),
			out:       make(chan queuedMsg, s.cfg.WriteQueue),
			stop:      make(chan struct{}),
		}
		s.conns[sc.id] = sc
		s.accepted.Add(1)
		s.setPressureLocked(0)
		s.mu.Unlock()

		s.wg.Add(2)
		go func() {
			defer s.wg.Done()
			sc.writeLoop()
		}()
		go func() {
			defer s.wg.Done()
			s.serve(sc)
		}()
	}
}

// sheddable reports whether a message may be dropped when the outbound
// queue is full. Slow-consumer policy: shed a packet_out that references a
// switch-side buffer (the frame stays buffered at the switch, where a
// re-request or buffer expiry recovers it) and keepalive traffic (the peer
// is stalled anyway, and a missed echo only advances dead-peer detection).
// Never shed a packet_out carrying its frame (BufferID == NoBuffer: the
// message is the only copy), flow_mod or any other control state — those
// block up to StallTimeout and then evict the connection.
func sheddable(m openflow.Message) bool {
	switch t := m.(type) {
	case *openflow.PacketOut:
		return t.BufferID != openflow.NoBuffer
	case *openflow.EchoRequest, *openflow.EchoReply:
		return true
	default:
		return false
	}
}

// enqueue hands one message to the connection's writer goroutine, applying
// the slow-consumer policy when the bounded queue is full.
func (sc *switchConn) enqueue(m openflow.Message, xid uint32) error {
	sc.mu.Lock()
	state := sc.state
	sc.mu.Unlock()
	// Draining still accepts traffic: replies to requests already read must
	// reach the wire before teardown. Only a closed connection rejects.
	if state == StateClosed {
		return errConnClosed
	}
	q := queuedMsg{m: m, xid: xid}
	select {
	case sc.out <- q:
		return nil
	default:
	}
	if sheddable(m) {
		sc.shed.Add(1)
		sc.server.shed.Add(1)
		return nil
	}
	timer := time.NewTimer(sc.server.cfg.StallTimeout)
	defer timer.Stop()
	select {
	case sc.out <- q:
		return nil
	case <-sc.stop:
		return errConnClosed
	case <-timer.C:
		sc.server.stallEvicted.Add(1)
		err := fmt.Errorf("%w: %v held %v", ErrWriteStall, m.Type(), sc.server.cfg.StallTimeout)
		sc.server.evict(sc, err)
		return err
	}
}

// writeLoop is the connection's writer goroutine: it drains the outbound
// queue, batching everything immediately available (up to maxWriteBatch
// messages) into a single socket write via the zero-alloc
// AppendEncode/Writer path. A write error or deadline evicts the connection.
func (sc *switchConn) writeLoop() {
	const maxWriteBatch = 64
	w := openflow.NewWriter(sc.conn)
	for {
		var q queuedMsg
		select {
		case <-sc.stop:
			return
		case q = <-sc.out:
		}
		n := 0
		for {
			if err := w.AppendMessage(q.m, q.xid); err != nil {
				sc.server.logf("controller: conn %d: encoding %v: %v", sc.id, q.m.Type(), err)
			} else {
				n++
			}
			if n >= maxWriteBatch {
				break
			}
			select {
			case q = <-sc.out:
				continue
			default:
			}
			break
		}
		if n == 0 {
			continue
		}
		_ = sc.conn.SetWriteDeadline(time.Now().Add(sc.server.cfg.StallTimeout))
		if err := w.Flush(); err != nil {
			sc.server.writeErrors.Add(1)
			sc.server.evict(sc, fmt.Errorf("write: %w", err))
			return
		}
		sc.msgsOut.Add(uint64(n))
		sc.server.msgsOut.Add(uint64(n))
	}
}

// evict tears one connection down: close the socket (unblocking its read
// and write loops), stop its keepalive timer, mark it closed, and remove it
// from the registry. Idempotent; safe from any goroutine not holding s.mu.
func (s *Server) evict(sc *switchConn, cause error) {
	sc.mu.Lock()
	already := sc.closing
	sc.closing = true
	sc.state = StateClosed
	if sc.echoT != nil {
		sc.echoT.Stop()
		sc.echoT = nil
	}
	sc.mu.Unlock()
	if already {
		return
	}
	close(sc.stop)
	_ = sc.conn.Close()
	s.mu.Lock()
	delete(s.conns, sc.id)
	s.setPressureLocked(0)
	s.mu.Unlock()
	if da, ok := s.app.(DatapathApp); ok {
		s.appMu.Lock()
		da.DetachConn(int(sc.id))
		s.appMu.Unlock()
	}
	if cause != nil && !errors.Is(cause, io.EOF) && !errors.Is(cause, net.ErrClosed) {
		s.logf("controller: conn %d (%s): closed: %v", sc.id, sc.conn.RemoteAddr(), cause)
	}
}

// armKeepalive schedules the next controller-side keepalive probe for a
// ready connection.
func (s *Server) armKeepalive(sc *switchConn) {
	if s.cfg.EchoInterval <= 0 {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closing || sc.state != StateReady {
		return
	}
	if sc.echoT != nil {
		sc.echoT.Stop()
	}
	sc.echoT = time.AfterFunc(s.cfg.EchoInterval, func() { s.keepaliveProbe(sc) })
}

func (s *Server) keepaliveProbe(sc *switchConn) {
	sc.mu.Lock()
	silent := time.Since(sc.lastRecv)
	closing := sc.closing
	sc.mu.Unlock()
	if closing {
		return
	}
	deadAfter := time.Duration(s.cfg.EchoMisses) * s.cfg.EchoInterval
	if silent > deadAfter {
		s.keepaliveEvicted.Add(1)
		s.evict(sc, fmt.Errorf("dead peer: silent for %v (limit %v)", silent, deadAfter))
		return
	}
	// Probe; the reply (any inbound message, in fact) refreshes lastRecv.
	_ = sc.enqueue(&openflow.EchoRequest{Data: []byte("ctl-keepalive")}, 0)
	s.armKeepalive(sc)
}

// serve drives one switch connection: handshake under deadline, then the
// dispatch loop until the connection dies or is evicted.
func (s *Server) serve(sc *switchConn) {
	defer s.evict(sc, nil)
	s.logf("controller: conn %d: switch connected from %s", sc.id, sc.conn.RemoteAddr())

	// Handshake: hello + features_request, with a read deadline bounding how
	// long the peer may take to produce its FEATURES_REPLY. Config push is
	// gated on that reply (see markReady).
	_ = sc.conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	if err := sc.enqueue(&openflow.Hello{}, 1); err != nil {
		return
	}
	if err := sc.enqueue(&openflow.FeaturesRequest{}, 2); err != nil {
		return
	}

	// Buffered: one read syscall takes in every message already sent, not
	// two per message (header, then body).
	r := openflow.NewReader(bufio.NewReader(sc.conn))
	for {
		m, inXid, err := r.ReadMessage()
		if err != nil {
			sc.mu.Lock()
			state := sc.state
			sc.mu.Unlock()
			var nerr net.Error
			switch {
			case errors.As(err, &nerr) && nerr.Timeout() && state == StateHandshake:
				s.handshakeTimeouts.Add(1)
				s.evict(sc, fmt.Errorf("handshake deadline (%v) expired", s.cfg.HandshakeTimeout))
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				s.evict(sc, err)
			default:
				// Garbage framing: bad version, corrupt/oversized length,
				// truncated body. This connection dies; others are untouched.
				s.framingErrors.Add(1)
				s.evict(sc, fmt.Errorf("framing: %w", err))
			}
			return
		}
		sc.mu.Lock()
		sc.lastRecv = time.Now()
		sc.mu.Unlock()
		sc.msgsIn.Add(1)
		s.msgsIn.Add(1)
		if err := s.dispatch(sc, m, inXid); err != nil {
			s.evict(sc, fmt.Errorf("dispatch %v: %w", m.Type(), err))
			return
		}
	}
}

// maxHeld bounds the app-bound messages a switch may send before its
// FEATURES_REPLY; one more evicts it.
const maxHeld = 256

// markReady promotes a connection out of StateHandshake on its
// FEATURES_REPLY: tells a DatapathApp which datapath the connection carries,
// clears the handshake read deadline, pushes the operator config
// (SET_CONFIG, buffer vendor message), and arms keepalive. It sets
// sc.attached. A connection that Close moved to draining before its reply
// is attached too, so the requests it sends during the drain are answered,
// but it stays draining.
func (s *Server) markReady(sc *switchConn, fr *openflow.FeaturesReply) error {
	// appMu before sc.mu: an eviction racing this either finds the
	// connection attached and detaches it, or is seen here as closing.
	s.appMu.Lock()
	sc.mu.Lock()
	if sc.attached || sc.closing {
		sc.mu.Unlock()
		s.appMu.Unlock()
		return nil // duplicate features_reply, or torn down: ignore
	}
	if da, ok := s.app.(DatapathApp); ok {
		if err := da.AttachDatapath(int(sc.id), fr.DatapathID); err != nil {
			sc.mu.Unlock()
			s.appMu.Unlock()
			return err
		}
	}
	if sc.state == StateHandshake {
		sc.state = StateReady
	}
	sc.dpid = fr.DatapathID
	sc.attached = true
	sc.mu.Unlock()
	s.appMu.Unlock()
	_ = sc.conn.SetReadDeadline(time.Time{})
	s.logf("controller: conn %d: datapath %016x ready with %d buffers, %d ports",
		sc.id, fr.DatapathID, fr.NBuffers, len(fr.Ports))

	xid := uint32(3)
	if s.cfg.MissSendLen != 0 {
		if err := sc.enqueue(&openflow.SetConfig{
			Config: openflow.SwitchConfig{MissSendLen: s.cfg.MissSendLen},
		}, xid); err != nil {
			return err
		}
		xid++
	}
	if s.cfg.Buffer != nil {
		v, err := openflow.EncodeFlowBufferConfig(*s.cfg.Buffer)
		if err != nil {
			return fmt.Errorf("bad buffer config: %w", err)
		}
		if err := sc.enqueue(v, xid); err != nil {
			return err
		}
	}
	s.armKeepalive(sc)
	return nil
}

func (s *Server) dispatch(sc *switchConn, m openflow.Message, xid uint32) error {
	switch t := m.(type) {
	case *openflow.PacketIn, *openflow.FlowRemoved:
	case *openflow.ErrorMsg:
		s.logf("controller: conn %d: switch error: %v", sc.id, t)
	case *openflow.PortStatus:
		state := "up"
		if t.Desc.State&openflow.PortStateLinkDown != 0 {
			state = "down"
		}
		s.logf("controller: conn %d: port_status: port %d (%s) link %s",
			sc.id, t.Desc.PortNo, t.Desc.Name, state)
	case *openflow.EchoRequest:
		return sc.enqueue(&openflow.EchoReply{Data: t.Data}, xid)
	case *openflow.FeaturesReply:
		err := s.markReady(sc, t)
		held := sc.held
		sc.held = nil
		for ; err == nil && sc.attached && len(held) > 0; held = held[1:] {
			err = s.dispatch(sc, held[0].m, held[0].xid)
		}
		return err
	case *openflow.StatsReply:
		s.logf("controller: conn %d: stats reply (%v)", sc.id, t.StatsType)
		return nil
	case *openflow.Hello, *openflow.EchoReply, *openflow.BarrierReply,
		*openflow.GetConfigReply, *openflow.Vendor:
		return nil
	default:
		s.logf("controller: conn %d: ignoring %v", sc.id, m.Type())
		return nil
	}
	if !sc.attached {
		// A switch may report a miss before answering the handshake; until
		// its FEATURES_REPLY the app cannot know which datapath this is.
		if len(sc.held) == maxHeld {
			return fmt.Errorf("%d app messages before FEATURES_REPLY", maxHeld+1)
		}
		sc.held = append(sc.held, queuedMsg{m, xid})
		return nil
	}
	s.appMu.Lock()
	replies, err := decide(s.app, int(sc.id), m, xid)
	s.appMu.Unlock()
	if err != nil {
		return fmt.Errorf("app: %w", err)
	}
	return s.send(sc, replies, xid)
}

// send enqueues one decision's replies, all with the request's xid, after
// the app lock is released. A reply to the requester goes straight to its
// queue, and an error there evicts it. Any other target is looked up in the
// registry; a reply for a connection that is gone, or that fails to take
// it, is dropped and logged, and never evicts the requester.
func (s *Server) send(sc *switchConn, replies []Directed, xid uint32) error {
	for _, r := range replies {
		target := sc
		if r.Conn != int(sc.id) {
			s.mu.Lock()
			target = s.conns[uint64(r.Conn)]
			s.mu.Unlock()
		}
		err := errConnClosed
		if target != nil {
			err = target.enqueue(r.Msg, xid)
		}
		if err != nil && target == sc {
			return err
		} else if err != nil {
			s.logf("controller: conn %d: dropping %v for conn %d: %v", sc.id, r.Msg.Type(), r.Conn, err)
		}
	}
	return nil
}

// Close shuts the daemon down gracefully: stop accepting, drain every
// connection's outbound queue (bounded by DrainTimeout), then tear the
// sockets down and wait for all connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]*switchConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}

	// Graceful drain: no new outbound work, writers flush what is queued.
	for _, sc := range conns {
		sc.mu.Lock()
		if !sc.closing && sc.state != StateClosed {
			sc.state = StateDraining
		}
		sc.mu.Unlock()
	}
	// A connection has drained when its queue is empty and no inbound
	// message has arrived for a few polls — replies to requests the switch
	// already sent are on the wire. DrainTimeout caps the wait per daemon.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for _, sc := range conns {
		quiet := 0
		lastIn := sc.msgsIn.Load()
		for time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			in := sc.msgsIn.Load()
			if len(sc.out) == 0 && in == lastIn {
				if quiet++; quiet >= 3 {
					break
				}
			} else {
				quiet = 0
				lastIn = in
			}
		}
	}
	for _, sc := range conns {
		s.evict(sc, nil)
	}
	s.wg.Wait()
	return err
}
