package switchd

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/telemetry"
)

// ErrEchoTimeout reports that the controller stopped answering keepalive
// probes. It is delivered through OnDisconnect (inspect with errors.Is) so
// callers can tell a silent controller from a torn connection.
var ErrEchoTimeout = errors.New("switchd: echo keepalive timed out")

// ReconnectConfig enables automatic redial after the control channel dies.
// Waits grow exponentially from InitialBackoff by Multiplier up to
// MaxBackoff, with a uniform random fraction Jitter of the current backoff
// added on top so a fleet of switches does not redial in lockstep.
type ReconnectConfig struct {
	// Enable turns automatic reconnection on.
	Enable bool
	// InitialBackoff is the first wait (default 100ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the wait (default 5s).
	MaxBackoff time.Duration
	// Multiplier grows the wait per failed attempt (default 2).
	Multiplier float64
	// Jitter adds up to this fraction of the current backoff to each wait
	// (e.g. 0.2 adds 0–20%). 0 disables jitter.
	Jitter float64
	// MaxAttempts gives up after this many failed dials (0 = keep trying).
	MaxAttempts int
	// Seed fixes the jitter RNG for reproducible tests (0 seeds from the
	// clock).
	Seed int64
}

func (rc ReconnectConfig) withDefaults() ReconnectConfig {
	if rc.InitialBackoff <= 0 {
		rc.InitialBackoff = 100 * time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 5 * time.Second
	}
	if rc.Multiplier < 1 {
		rc.Multiplier = 2
	}
	if rc.Jitter < 0 {
		rc.Jitter = 0
	}
	return rc
}

// AgentConfig configures the live-mode switch.
type AgentConfig struct {
	Datapath Config
	// Logger receives lifecycle messages; nil silences them.
	Logger *log.Logger
	// EchoInterval enables a keepalive loop: the agent probes the
	// controller with ECHO_REQUEST at this interval and reports a dead
	// control channel through OnDisconnect when a probe goes unanswered
	// for two intervals (the error matches ErrEchoTimeout). 0 disables
	// keepalive.
	EchoInterval time.Duration
	// OnDisconnect is called (once per connection) when the control
	// channel dies — read failure or missed keepalive. It runs on an agent
	// goroutine and must not block. With Reconnect.Enable the agent
	// additionally redials on its own; without it, typical use is
	// scheduling a reconnect by hand.
	OnDisconnect func(err error)
	// Reconnect configures automatic redial with exponential backoff.
	Reconnect ReconnectConfig
	// OnReconnect is called after a successful automatic reconnect with
	// the number of dial attempts it took. Runs on an agent goroutine and
	// must not block.
	OnReconnect func(attempts int)
	// DialTimeout bounds each Connect (and automatic redial) attempt.
	// 0 means the operating system's default.
	DialTimeout time.Duration
	// WriteTimeout bounds each control-channel write; past it the write
	// fails and the connection is reported dead rather than wedging the
	// datapath behind a stalled controller socket. 0 disables the bound.
	WriteTimeout time.Duration
}

// Agent is the live-mode switch: a Datapath driven by a real OpenFlow TCP
// connection to a controller, with frames injected by in-process hosts.
// It is the Open vSwitch role in the paper's Fig. 1, runnable over loopback
// or a real network.
type Agent struct {
	logger       *log.Logger
	echoInterval time.Duration
	dialTimeout  time.Duration
	writeTimeout time.Duration
	onDisconnect func(err error)
	onReconnect  func(attempts int)
	reconnect    ReconnectConfig
	rng          *rand.Rand    // jitter source; used only by reconnectLoop
	stop         chan struct{} // closed by Close to abort backoff sleeps

	mu      sync.Mutex
	dp      *Datapath
	conn    net.Conn
	addr    string // last Connect target, for automatic redial
	writeMu sync.Mutex
	writer  *openflow.Writer // per-connection encode buffer, guarded by writeMu
	start   time.Time
	nextXid uint32
	echoT   *time.Timer
	echoGen uint64 // invalidates in-flight echo timer fires on Close/reconnect
	disc    bool   // OnDisconnect already fired for this connection

	// The datapath's deadline timer (DESIGN.md §18): tickT is its one
	// wake-up, created by the first arm and only Reset after.
	timer deadlineTimer
	tickT *time.Timer

	// lastEcho is the agent-clock instant of the last inbound message; the
	// read loop stores it per message without taking mu.
	lastEcho atomic.Int64

	transmit func(port uint16, frame []byte)

	wg     sync.WaitGroup
	closed bool
}

// NewAgent builds the live switch.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	dp, err := NewDatapath(cfg.Datapath)
	if err != nil {
		return nil, err
	}
	rc := cfg.Reconnect.withDefaults()
	seed := rc.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	a := &Agent{
		dp:           dp,
		logger:       cfg.Logger,
		echoInterval: cfg.EchoInterval,
		dialTimeout:  cfg.DialTimeout,
		writeTimeout: cfg.WriteTimeout,
		onDisconnect: cfg.OnDisconnect,
		onReconnect:  cfg.OnReconnect,
		reconnect:    rc,
		rng:          rand.New(rand.NewSource(seed)),
		stop:         make(chan struct{}),
		start:        time.Now(),
	}
	a.timer = deadlineTimer{dp: dp, set: a.setTick, stop: a.stopTick}
	return a, nil
}

// SetTransmit wires the data-plane egress callback. Must be set before
// frames flow; the callback runs on agent goroutines and must not block.
func (a *Agent) SetTransmit(fn func(port uint16, frame []byte)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.transmit = fn
}

// Datapath exposes the protocol core. The datapath is guarded by the
// agent's lock while the agent is connected; for concurrent inspection use
// the locked accessors (BufferGranularity, TableLen, Stats) instead.
func (a *Agent) Datapath() *Datapath { return a.dp }

// SetTelemetry wires the packet-lifecycle recorder into the live agent's
// datapath (table hits/misses, buffer enqueue/drain spans, NetFlow
// records). The recorder is single-goroutine like the datapath it
// observes: set it before traffic flows and read it only after Close. nil
// disables (the default).
func (a *Agent) SetTelemetry(rec *telemetry.Recorder) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dp.SetTelemetry(rec)
}

// BufferGranularity reports the active buffer mechanism, safely.
func (a *Agent) BufferGranularity() openflow.BufferGranularity {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dp.Mechanism().Granularity()
}

// TableLen reports the number of installed rules, safely.
func (a *Agent) TableLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dp.Table().Len()
}

// Stats reports the datapath traffic counters, safely.
func (a *Agent) Stats() (rxFrames, rxBytes, txFrames, txBytes, misses uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dp.Stats()
}

// TimerStats reports the deadline timer's counters, safely.
func (a *Agent) TimerStats() TimerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.timer.stats
}

// ControlDown reports whether the datapath is currently in its fail mode,
// safely.
func (a *Agent) ControlDown() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dp.ControlDown()
}

func (a *Agent) logf(format string, args ...any) {
	if a.logger != nil {
		a.logger.Printf(format, args...)
	}
}

// now reports the agent-relative clock the datapath runs on.
func (a *Agent) now() time.Duration { return time.Since(a.start) }

// Connect dials the controller, sends HELLO and starts the read loop, and
// returns then: it does not wait for the controller's side of the handshake.
// Frames injected from then on are served — a miss reaches the controller
// as a packet_in, which may arrive before the switch has answered
// FEATURES_REQUEST; controller.Server holds such messages until it has.
func (a *Agent) Connect(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, a.dialTimeout)
	if err != nil {
		return fmt.Errorf("switchd: dialing controller %s: %w", addr, err)
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("switchd: agent closed")
	}
	a.conn = conn
	a.addr = addr
	a.writer = openflow.NewWriter(conn)
	a.disc = false
	a.lastEcho.Store(int64(a.now()))
	a.echoGen++ // invalidate probes armed for the previous connection
	a.mu.Unlock()

	if err := a.send(&openflow.Hello{}, a.xid()); err != nil {
		return err
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.readLoop(conn)
	}()
	if a.echoInterval > 0 {
		a.mu.Lock()
		a.armEchoLocked()
		a.mu.Unlock()
	}
	return nil
}

// armEchoLocked schedules the next keepalive probe. Callers hold a.mu. The
// probe captures the current echo generation: Close and reconnect bump it,
// so a timer fire already in flight when the agent closes or redials finds
// itself stale and does nothing — the timer cannot act after Close.
func (a *Agent) armEchoLocked() {
	if a.closed || a.echoInterval <= 0 {
		return
	}
	if a.echoT != nil {
		a.echoT.Stop()
	}
	gen := a.echoGen
	a.echoT = time.AfterFunc(a.echoInterval, func() { a.echoProbe(gen) })
}

func (a *Agent) echoProbe(gen uint64) {
	a.mu.Lock()
	stale := a.closed || gen != a.echoGen
	a.mu.Unlock()
	dead := a.now()-time.Duration(a.lastEcho.Load()) > 2*a.echoInterval
	if stale {
		return
	}
	if dead {
		a.reportDisconnect(fmt.Errorf("%w: controller unresponsive for %v", ErrEchoTimeout, 2*a.echoInterval))
		return
	}
	if err := a.send(&openflow.EchoRequest{Data: []byte("keepalive")}, a.xid()); err != nil {
		a.reportDisconnect(fmt.Errorf("switchd: keepalive send: %w", err))
		return
	}
	a.mu.Lock()
	a.armEchoLocked()
	a.mu.Unlock()
}

// reportDisconnect fires OnDisconnect once per connection, flips the
// datapath into its fail mode, closes the dead connection (unblocking the
// read loop after an echo timeout), and — when automatic reconnection is
// enabled — starts the backoff redial loop.
func (a *Agent) reportDisconnect(err error) {
	a.mu.Lock()
	fire := !a.disc && !a.closed
	a.disc = true
	cb := a.onDisconnect
	var conn net.Conn
	spawn := false
	if fire {
		a.dp.SetControlDown(true)
		conn = a.conn
		a.conn = nil
		a.writer = nil
		if a.reconnect.Enable {
			// wg.Add happens strictly before Close sets a.closed (both under
			// a.mu), and Close only calls wg.Wait after that — so this Add
			// never races a Wait at counter zero.
			a.wg.Add(1)
			spawn = true
		}
	}
	a.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	a.logf("switch: control channel down: %v", err)
	if fire && cb != nil {
		cb(err)
	}
	if spawn {
		go a.reconnectLoop()
	}
}

// reconnectLoop redials the controller with exponential backoff + jitter
// until it succeeds, exhausts MaxAttempts, or the agent closes.
func (a *Agent) reconnectLoop() {
	defer a.wg.Done()
	rc := a.reconnect
	backoff := rc.InitialBackoff
	for attempt := 1; ; attempt++ {
		if rc.MaxAttempts > 0 && attempt > rc.MaxAttempts {
			a.logf("switch: reconnect: giving up after %d attempts", rc.MaxAttempts)
			return
		}
		wait := backoff
		if rc.Jitter > 0 {
			wait += time.Duration(a.rng.Float64() * rc.Jitter * float64(backoff))
		}
		select {
		case <-a.stop:
			return
		case <-time.After(wait):
		}
		a.mu.Lock()
		addr := a.addr
		a.mu.Unlock()
		if err := a.Connect(addr); err != nil {
			a.logf("switch: reconnect attempt %d: %v", attempt, err)
			backoff = time.Duration(float64(backoff) * rc.Multiplier)
			if backoff > rc.MaxBackoff {
				backoff = rc.MaxBackoff
			}
			continue
		}
		a.mu.Lock()
		a.dp.SetControlDown(false)
		cb := a.onReconnect
		a.mu.Unlock()
		a.logf("switch: reconnected after %d attempt(s)", attempt)
		if cb != nil {
			cb(attempt)
		}
		return
	}
}

func (a *Agent) xid() uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextXid++
	return a.nextXid
}

func (a *Agent) send(m openflow.Message, xid uint32) error {
	a.mu.Lock()
	w, conn := a.writer, a.conn
	a.mu.Unlock()
	return a.write(w, conn, m, xid)
}

// write sends on a connection the caller read from a.writer and a.conn in a
// section of a.mu it was holding anyway. Callers must NOT hold a.mu.
func (a *Agent) write(w *openflow.Writer, conn net.Conn, m openflow.Message, xid uint32) error {
	if w == nil {
		return fmt.Errorf("switchd: not connected")
	}
	a.writeMu.Lock()
	if a.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(a.writeTimeout))
	}
	err := w.WriteMessage(m, xid)
	a.writeMu.Unlock()
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		// A write that can't complete within the bound means the controller
		// socket is wedged: treat it like a missed keepalive, not a lost
		// message — tear the connection down (readLoop unblocks on the
		// close) so the reconnect path can take over.
		a.reportDisconnect(fmt.Errorf("switchd: control write stalled: %w", err))
	}
	return err
}

func (a *Agent) readLoop(conn net.Conn) {
	r := openflow.NewReader(conn)
	for {
		frame, err := r.ReadFrame()
		var m openflow.Message
		var xid uint32
		if err == nil {
			m, xid, err = openflow.Decode(frame)
		}
		if errors.Is(err, openflow.ErrUnknownType) {
			// The reader consumed the whole frame, so the stream is still
			// aligned: refuse the message and keep reading.
			a.lastEcho.Store(int64(a.now()))
			if err := a.send(badTypeError(frame), xid); err != nil {
				a.logf("switch: refusing %v: %v", openflow.MsgType(frame[1]), err)
			}
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.logf("switch: read: %v", err)
			}
			a.reportDisconnect(fmt.Errorf("switchd: control read: %w", err))
			return
		}
		a.lastEcho.Store(int64(a.now())) // any inbound traffic proves liveness
		if err := a.control(m, xid); err != nil {
			a.logf("switch: handling %v: %v", m.Type(), err)
		}
		openflow.ReleaseMessage(m)
	}
}

// control runs one controller message through the datapath under the lock,
// arms for any deadline it brought forward, and then emits its effects.
func (a *Agent) control(m openflow.Message, xid uint32) error {
	a.mu.Lock()
	res, err := a.dp.Control(a.now(), m, xid)
	// An installed rule or a release can bring a deadline forward, and it has
	// happened whether or not the replies below get out: arm for it here.
	a.timer.arm()
	tx := a.transmit
	w, conn := a.writer, a.conn
	a.mu.Unlock()
	if err != nil {
		return err
	}
	for _, o := range res.Outputs {
		if tx != nil {
			tx(o.Port, o.Frame)
		}
	}
	for _, reply := range res.Msgs {
		if err := a.write(w, conn, reply, xid); err != nil {
			return err
		}
	}
	return nil
}

// InjectFrame delivers one data-plane frame to a switch port, as a host NIC
// would. Table hits are forwarded synchronously via the transmit callback;
// misses go to the buffer mechanism and the controller.
func (a *Agent) InjectFrame(inPort uint16, frame []byte) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("switchd: agent closed")
	}
	res, err := a.dp.HandleFrame(a.now(), inPort, frame)
	if err != nil {
		a.mu.Unlock()
		return err
	}
	tx := a.transmit
	// The FrameResult is datapath-owned scratch, valid only under the lock
	// (a concurrent InjectFrame would overwrite it); copy what outlives it.
	// Only a flood has more outputs than the array holds.
	var few [4]Output
	outs := append(few[:0], res.Outputs...)
	var pi *openflow.PacketIn
	var xid uint32
	var w *openflow.Writer
	var conn net.Conn
	if res.Miss != nil {
		// A miss can hand the mechanism a new deadline. A hit cannot: it only
		// moves the matched rule's idle deadline later, which leaves the armed
		// timer a valid, early wake-up — the hit path does no timer work.
		a.timer.arm()
		if res.Miss.PacketIn != nil {
			pi = res.Miss.PacketIn
			a.nextXid++
			xid, w, conn = a.nextXid, a.writer, a.conn
		}
	}
	a.mu.Unlock()
	for _, o := range outs {
		if tx != nil {
			tx(o.Port, o.Frame)
		}
	}
	if pi != nil {
		if err := a.write(w, conn, pi, xid); err != nil {
			// A dead control channel loses packet_ins but must not fail the
			// data plane: the fail mode decided what happened to the frame,
			// and for buffered misses the re-request timer retries after
			// reconnect.
			a.logf("switch: packet_in lost (control channel down): %v", err)
		}
	}
	return nil
}

// SetPortDown flips one data port's link state, as a NIC driver would on
// carrier change, and sends the controller what Datapath.SetPortDown
// returns. No-op when already in the target state, so repeated flaps do not
// re-notify. A dead control channel loses the notifications but not the
// state change — the fail mode and reconnect path handle the rest.
func (a *Agent) SetPortDown(port uint16, down bool) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("switchd: agent closed")
	}
	msgs, err := a.dp.SetPortDown(a.now(), port, down)
	w, conn := a.writer, a.conn
	a.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := a.write(w, conn, m, 0); err != nil {
			a.logf("switch: port_status lost (control channel down): %v", err)
			return nil
		}
	}
	return nil
}

// setTick (re)sets the agent's one deadline wake-up. Callers hold a.mu.
func (a *Agent) setTick(at time.Duration) {
	if a.closed {
		return
	}
	delay := max(at-a.now(), 0)
	if a.tickT == nil {
		a.tickT = time.AfterFunc(delay, a.tick)
	} else {
		a.tickT.Reset(delay)
	}
}

// stopTick cancels the pending deadline wake-up. Callers hold a.mu.
func (a *Agent) stopTick() {
	if a.tickT != nil {
		a.tickT.Stop()
	}
}

// tick is the timer's fire: the datapath's due work under the lock, re-armed
// from the exact next deadline, then the messages it owes the controller.
func (a *Agent) tick() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	rerequests, removed := a.timer.fire(a.now())
	a.timer.arm()
	a.mu.Unlock()
	for _, pi := range rerequests {
		if err := a.send(pi, a.xid()); err != nil {
			a.logf("switch: re-request: %v", err)
		}
	}
	for _, fr := range removed {
		if err := a.send(fr, 0); err != nil {
			a.logf("switch: flow_removed: %v", err)
		}
	}
}

// Close tears the control connection down, stops timers, aborts any
// reconnect backoff in progress, and waits for agent goroutines to exit.
func (a *Agent) Close() error {
	a.mu.Lock()
	wasClosed := a.closed
	a.closed = true
	a.echoGen++ // a probe already fired but not yet run becomes stale
	conn := a.conn
	a.conn = nil
	a.writer = nil
	a.timer.disarm()
	if a.echoT != nil {
		a.echoT.Stop()
		a.echoT = nil
	}
	a.mu.Unlock()
	if !wasClosed {
		close(a.stop)
	}
	var err error
	if conn != nil {
		err = conn.Close()
	}
	a.wg.Wait()
	return err
}
