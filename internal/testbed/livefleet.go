package testbed

import (
	"fmt"
	"log"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/netem/tcpchaos"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/topo"
)

// LiveFleetConfig describes a live soak run: N real switchd.Agents dialing
// one controller.Server over loopback, optionally through a tcpchaos proxy
// that mangles the byte streams between them. The server runs
// topo.PathForwarder over line:N in hop mode, and agent i is its switch i
// (datapath id i+1).
type LiveFleetConfig struct {
	// Agents is the fleet size (required, ≥ 1).
	Agents int
	// Chaos, when Enabled, interposes a fault-injection proxy between every
	// agent and the server.
	Chaos tcpchaos.Profile
	// Server tunes the daemon under test; zero-value fields default as in
	// controller.ServerConfig. MaxConns defaults to 0 (unlimited) so chaos
	// reconnect storms are admitted.
	Server controller.ServerConfig
	// EchoInterval is the keepalive period used on BOTH sides (agents probe
	// the server, the server probes agents). Default 150ms — short enough
	// that blackhole windows trip dead-peer detection within a soak.
	EchoInterval time.Duration
	// Logger receives lifecycle noise; nil silences it.
	Logger *log.Logger
}

// LiveFleet is the live-mode soak harness: a controller daemon, a chaos
// proxy, and a fleet of real agents with auto-reconnect, all on loopback.
// It is the acceptance rig for ROADMAP item 3: every fault the proxy
// injects must end either in a converged agent or a reconnect that
// converges, never a wedge or a leak.
type LiveFleet struct {
	cfg    LiveFleetConfig
	server *controller.Server
	proxy  *tcpchaos.Proxy // nil without chaos
	agents []*switchd.Agent

	reconnects atomic.Uint64 // fleet-wide successful reconnect count
	disconns   atomic.Uint64 // fleet-wide disconnect reports
	flowSeq    atomic.Uint32 // unique flow ids across Converge calls

	mu       sync.Mutex
	received map[int]int // agent index → frames egressed by the datapath
}

// NewLiveFleet assembles and starts the whole rig: server listening,
// proxy (if chaotic) in front of it, and every agent connected through
// whichever endpoint applies. Agents use seeded reconnect jitter so runs
// are as reproducible as real sockets allow.
func NewLiveFleet(cfg LiveFleetConfig) (*LiveFleet, error) {
	if cfg.Agents < 1 {
		return nil, fmt.Errorf("testbed: live fleet needs at least 1 agent, got %d", cfg.Agents)
	}
	if cfg.EchoInterval == 0 {
		cfg.EchoInterval = 150 * time.Millisecond
	}
	g, err := topo.Build(topo.Spec{Kind: topo.KindLine, Switches: cfg.Agents})
	if err != nil {
		return nil, err
	}
	app := topo.NewPathForwarder(g, topo.InstallHopByHop, controller.ForwarderConfig{})
	scfg := cfg.Server
	if scfg.EchoInterval == 0 {
		scfg.EchoInterval = cfg.EchoInterval
	}
	if scfg.Logger == nil {
		scfg.Logger = cfg.Logger
	}
	server, err := controller.NewServer(scfg, app)
	if err != nil {
		return nil, err
	}
	if err := server.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	lf := &LiveFleet{
		cfg:      cfg,
		server:   server,
		received: make(map[int]int),
	}
	dialAddr := server.Addr()
	if cfg.Chaos.Enabled() {
		proxy, err := tcpchaos.New(cfg.Chaos, server.Addr())
		if err != nil {
			_ = server.Close()
			return nil, err
		}
		lf.proxy = proxy
		dialAddr = proxy.Addr()
	}
	for i := 0; i < cfg.Agents; i++ {
		i := i
		agent, err := switchd.NewAgent(switchd.AgentConfig{
			Datapath: switchd.Config{
				DatapathID: uint64(i + 1),
				NumPorts:   2,
				Buffer:     openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
			},
			Logger:       cfg.Logger,
			EchoInterval: cfg.EchoInterval,
			DialTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			Reconnect: switchd.ReconnectConfig{
				Enable:         true,
				InitialBackoff: 25 * time.Millisecond,
				MaxBackoff:     250 * time.Millisecond,
				Jitter:         0.2,
				Seed:           int64(i + 1),
			},
			OnDisconnect: func(error) { lf.disconns.Add(1) },
			OnReconnect:  func(int) { lf.reconnects.Add(1) },
		})
		if err != nil {
			lf.closePartial()
			return nil, err
		}
		agent.SetTransmit(func(port uint16, frame []byte) {
			lf.mu.Lock()
			lf.received[i]++
			lf.mu.Unlock()
		})
		lf.agents = append(lf.agents, agent)
		if err := agent.Connect(dialAddr); err != nil {
			// Under chaos the very first dial may die to an injected fault;
			// the reconnect loop only arms after one successful Connect, so
			// retry here rather than failing assembly.
			ok := false
			for attempt := 0; attempt < 50 && !ok; attempt++ {
				time.Sleep(20 * time.Millisecond)
				ok = agent.Connect(dialAddr) == nil
			}
			if !ok {
				lf.closePartial()
				return nil, fmt.Errorf("testbed: agent %d never connected: %w", i, err)
			}
		}
	}
	return lf, nil
}

func (lf *LiveFleet) closePartial() {
	for _, a := range lf.agents {
		_ = a.Close()
	}
	if lf.proxy != nil {
		_ = lf.proxy.Close()
	}
	_ = lf.server.Close()
}

// Server exposes the daemon under test (stats, registry).
func (lf *LiveFleet) Server() *controller.Server { return lf.server }

// Proxy exposes the chaos relay, or nil when the fleet runs clean.
func (lf *LiveFleet) Proxy() *tcpchaos.Proxy { return lf.proxy }

// Agent returns the i-th agent.
func (lf *LiveFleet) Agent(i int) *switchd.Agent { return lf.agents[i] }

// Reconnects reports fleet-wide successful reconnect count.
func (lf *LiveFleet) Reconnects() uint64 { return lf.reconnects.Load() }

// Disconnects reports fleet-wide disconnect reports.
func (lf *LiveFleet) Disconnects() uint64 { return lf.disconns.Load() }

// fleetFrame builds the injected workload frame for one agent: a UDP
// packet from host 0 (10.0.0.1) to host 1 (10.0.0.2), which enters on port 1
// and leaves on port 2 at every switch of the line, varying the UDP source
// port per round so each round is a distinct flow.
func fleetFrame(agent, round int) ([]byte, error) {
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, byte(agent >> 8), byte(agent), 0, 1},
		DstMAC:    packet.MAC{2, 0, byte(agent >> 8), byte(agent), 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		DstIP:     netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		SrcPort:   uint16(1024 + round),
		DstPort:   9,
		Payload:   make([]byte, 64),
	}
	return f.Serialize()
}

// Converge drives every agent to a converged state: inject a frame, wait
// for the resulting egress (miss → packet_in → packet_out/flow_mod →
// transmit), retrying through faults until each agent has proven a working
// control-channel round trip AND an installed rule. Returns the number of
// agents that failed to converge within the per-agent deadline (0 on full
// convergence).
func (lf *LiveFleet) Converge(perAgent time.Duration) int {
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := range lf.agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !lf.convergeOne(i, time.Now().Add(perAgent)) {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	return int(failed.Load())
}

func (lf *LiveFleet) convergeOne(i int, deadline time.Time) bool {
	agent := lf.agents[i]
	for time.Now().Before(deadline) {
		// A fresh flow id every round — including across Converge calls —
		// so a frame can never hit a rule installed for an earlier round
		// and masquerade local forwarding as control-plane convergence.
		round := int(lf.flowSeq.Add(1))
		frame, err := fleetFrame(i, round)
		if err != nil {
			return false
		}
		before := lf.egressCount(i)
		if err := agent.InjectFrame(1, frame); err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		// Wait briefly for the control round trips to produce an installed
		// rule and egress; under chaos this round may be a casualty, in
		// which case the outer loop retries with a fresh flow. Requiring a
		// Ready registry entry keeps the fail-standalone datapath (which
		// forwards locally while the control channel is down) from passing
		// for a converged control plane.
		waitUntil := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(waitUntil) {
			if lf.egressCount(i) > before && agent.TableLen() > 0 && lf.serverReady(i) {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return false
}

// serverReady reports whether the daemon's registry holds a Ready
// connection for agent i's datapath.
func (lf *LiveFleet) serverReady(i int) bool {
	for _, c := range lf.server.Conns() {
		if c.DatapathID == uint64(i+1) && c.State == controller.StateReady {
			return true
		}
	}
	return false
}

func (lf *LiveFleet) egressCount(i int) int {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.received[i]
}

// Close tears the whole rig down: agents first (clean FINs toward the
// server), then the proxy, then the daemon.
func (lf *LiveFleet) Close() error {
	var firstErr error
	for _, a := range lf.agents {
		if err := a.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if lf.proxy != nil {
		if err := lf.proxy.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := lf.server.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
