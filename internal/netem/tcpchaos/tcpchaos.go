// Package tcpchaos is the live-mode counterpart of netem's simulated link
// impairments: a socket-level fault-injection proxy that sits between real
// switchd agents and the live controller on loopback, mangling actual TCP
// byte streams. Where netem.Impairment schedules loss and outages in
// virtual time, a tcpchaos.Profile injects seeded latency/jitter, partial
// writes, mid-frame truncation, connection resets and blackhole windows
// into kernel sockets — the faults a control channel sees on a congested or
// flapping management network, applied where only the peers' own
// robustness (deadlines, keepalive, reconnect) can absorb them.
//
// All randomness is drawn from a per-connection, per-direction RNG seeded
// from Profile.Seed, so a fleet run replays the same fault schedule for the
// same seed even though goroutine interleaving differs.
package tcpchaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/netem"
)

// Profile configures the faults a proxy injects. The zero value forwards
// bytes unmodified (Enabled reports false). Probabilities are per forwarded
// chunk — one Read from the source socket — in [0, 1].
type Profile struct {
	// Seed makes the fault schedule reproducible; 0 means seed 1.
	Seed int64

	// Latency delays every forwarded chunk by at least this much; Jitter
	// adds a uniform [0, Jitter) extra per chunk. Chunks within one
	// direction never reorder (the pump is sequential), matching TCP.
	Latency time.Duration
	Jitter  time.Duration

	// PartialWrite forwards a random prefix (at least one byte) of the
	// chunk and pushes the rest back for the next round — exercising
	// readers that must reassemble frames across arbitrary boundaries.
	PartialWrite float64

	// Truncate forwards a random strict prefix of the chunk and then
	// closes the connection: a peer dying mid-frame.
	Truncate float64

	// Reset aborts the connection with RST (SO_LINGER 0) instead of a
	// clean FIN, exercising "connection reset by peer" paths.
	Reset float64

	// Blackholes are wall-clock windows (relative to proxy start) during
	// which bytes are silently swallowed: the connection stays up but
	// nothing gets through — the stall that only keepalive can detect.
	Blackholes []netem.Window
}

// Validate rejects out-of-range probabilities, negative delays and bad
// windows (wrapping netem.ErrInvalidWindow, matching the simulated side).
func (p *Profile) Validate() error {
	for name, v := range map[string]float64{
		"PartialWrite": p.PartialWrite,
		"Truncate":     p.Truncate,
		"Reset":        p.Reset,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("tcpchaos: %s = %v out of [0, 1]", name, v)
		}
	}
	if p.Latency < 0 || p.Jitter < 0 {
		return fmt.Errorf("tcpchaos: negative latency/jitter (%v, %v)", p.Latency, p.Jitter)
	}
	for _, w := range p.Blackholes {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Enabled reports whether the profile injects any fault at all.
func (p *Profile) Enabled() bool {
	return p.Latency > 0 || p.Jitter > 0 || p.PartialWrite > 0 ||
		p.Truncate > 0 || p.Reset > 0 || len(p.Blackholes) > 0
}

// Stats counts what the proxy did, from atomics — safe to read live.
type Stats struct {
	Conns         uint64 // connections accepted
	BytesForward  uint64 // bytes delivered (both directions)
	BytesSwallow  uint64 // bytes dropped inside blackhole windows
	PartialWrites uint64
	Truncations   uint64
	Resets        uint64
}

// Proxy is a TCP fault-injection relay: it accepts on its own loopback
// address and pumps each connection to the target address through the
// configured Profile, independently in each direction.
type Proxy struct {
	profile Profile
	target  string
	ln      net.Listener
	start   time.Time

	mu     sync.Mutex
	conns  map[uint64]*proxyConn
	nextID uint64
	closed bool
	wg     sync.WaitGroup

	nConns        atomic.Uint64
	bytesForward  atomic.Uint64
	bytesSwallow  atomic.Uint64
	partialWrites atomic.Uint64
	truncations   atomic.Uint64
	resets        atomic.Uint64
}

type proxyConn struct {
	id       uint64
	upstream net.Conn // to the target (controller)
	client   net.Conn // from the dialing agent
	once     sync.Once
}

// New starts a proxy in front of target (host:port), listening on an
// ephemeral loopback port. Close it to stop relaying.
func New(profile Profile, target string) (*Proxy, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcpchaos: listen: %w", err)
	}
	if profile.Seed == 0 {
		profile.Seed = 1
	}
	p := &Proxy{
		profile: profile,
		target:  target,
		ln:      ln,
		start:   time.Now(),
		conns:   make(map[uint64]*proxyConn),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — what agents should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:         p.nConns.Load(),
		BytesForward:  p.bytesForward.Load(),
		BytesSwallow:  p.bytesSwallow.Load(),
		PartialWrites: p.partialWrites.Load(),
		Truncations:   p.truncations.Load(),
		Resets:        p.resets.Load(),
	}
}

// ConnCount reports live proxied connections.
func (p *Proxy) ConnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// KillAll hard-drops every live proxied connection (both sides), leaving
// the proxy accepting — a mass controller-link failure that forces the
// whole fleet through its reconnect path at once.
func (p *Proxy) KillAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for _, pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		pc.close()
	}
}

// Close stops accepting, drops every proxied connection and waits for all
// pump goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillAll()
	p.wg.Wait()
	return err
}

func (pc *proxyConn) close() {
	pc.once.Do(func() {
		_ = pc.client.Close()
		_ = pc.upstream.Close()
	})
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // only Close errors a loopback accept
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue // target down: the agent sees an immediate hangup
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			_ = upstream.Close()
			return
		}
		p.nextID++
		pc := &proxyConn{id: p.nextID, upstream: upstream, client: client}
		p.conns[pc.id] = pc
		n := p.nConns.Add(1)
		p.wg.Add(2)
		p.mu.Unlock()
		// Distinct deterministic seeds per connection and direction.
		go p.pump(pc, client, upstream, int64(n)*2)   // agent → controller
		go p.pump(pc, upstream, client, int64(n)*2+1) // controller → agent
	}
}

// pump relays src → dst through the fault profile until either side dies,
// then tears the whole proxied connection down.
func (p *Proxy) pump(pc *proxyConn, src, dst net.Conn, lane int64) {
	defer p.wg.Done()
	defer pc.close()
	defer func() {
		p.mu.Lock()
		delete(p.conns, pc.id)
		p.mu.Unlock()
	}()
	rng := rand.New(rand.NewSource(p.profile.Seed ^ lane*0x5851f42d4c957f2d))
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.mangle(rng, dst, buf[:n]) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// mangle applies the profile to one chunk: delay it, maybe swallow it
// (blackhole), slice it into separate partial writes, or kill the
// connection mid-frame (truncate/reset). Returns whether the pump should
// continue. Every byte either reaches dst, is swallowed by a blackhole, or
// dies with the connection — never held back, so a quiescent stream cannot
// strand data inside the proxy.
func (p *Proxy) mangle(rng *rand.Rand, dst net.Conn, chunk []byte) bool {
	prof := &p.profile
	if d := prof.Latency; d > 0 || prof.Jitter > 0 {
		if prof.Jitter > 0 {
			d += time.Duration(rng.Int63n(int64(prof.Jitter)))
		}
		time.Sleep(d)
	}
	elapsed := time.Since(p.start)
	for _, w := range prof.Blackholes {
		if w.Contains(elapsed) {
			p.bytesSwallow.Add(uint64(len(chunk)))
			return true // swallowed, connection stays up
		}
	}
	for len(chunk) > 0 {
		switch draw := rng.Float64(); {
		case draw < prof.Reset:
			p.resets.Add(1)
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.SetLinger(0) // RST instead of FIN
			}
			return false
		case draw < prof.Reset+prof.Truncate && len(chunk) > 1:
			cut := 1 + rng.Intn(len(chunk)-1) // strict prefix
			p.truncations.Add(1)
			_ = p.forward(dst, chunk[:cut]) // the connection dies either way
			return false
		case draw < prof.Reset+prof.Truncate+prof.PartialWrite && len(chunk) > 1:
			cut := 1 + rng.Intn(len(chunk)-1)
			p.partialWrites.Add(1)
			if err := p.forward(dst, chunk[:cut]); err != nil {
				return false
			}
			chunk = chunk[cut:] // redraw for the remainder
		default:
			return p.forward(dst, chunk) == nil
		}
	}
	return true
}

// forward writes b to dst. The bytes count as forwarded before the write,
// so Stats never lags what the peer has already read; whatever the write
// did not deliver is taken back when it returns.
func (p *Proxy) forward(dst net.Conn, b []byte) error {
	p.bytesForward.Add(uint64(len(b)))
	n, err := dst.Write(b)
	if n < len(b) {
		p.bytesForward.Add(^uint64(len(b) - n - 1)) // subtract len(b)-n
	}
	return err
}

// Forward is a convenience no-fault profile for control runs.
func Forward() Profile { return Profile{} }
