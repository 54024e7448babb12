// Command ofctl runs the live-mode controller: a real OpenFlow TCP server
// running topo.PathForwarder, the same controller application the simulator
// runs — the Floodlight role in the paper's testbed. A switch is bound to
// its place in the -topo graph by datapath id (dpid i+1 is switch i), and
// host i is 10.0.0.(i+1). Switches built from this repository
// (cmd/ofswitch) or any OpenFlow 1.0 switch restricted to this subset can
// connect to it.
//
// Usage:
//
//	ofctl -listen :6633 -topo line:1
//	ofctl -listen :6633 -buffer flow -rerequest 50ms
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/topo"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen      = flag.String("listen", ":6633", "TCP listen address")
		topoSpec    = flag.String("topo", "line:1", "topology the switches form (line:4, leafspine:leaves=8,spines=4, ...); dpid i+1 is switch i")
		bufferMode  = flag.String("buffer", "", "buffer mode to push to switches: none, packet or flow (empty: leave switch default)")
		rerequest   = flag.Duration("rerequest", 50*time.Millisecond, "flow-granularity re-request timeout")
		maxPerFlow  = flag.Int("max-per-flow", 0, "flow-granularity per-flow packet bound (0 = unbounded)")
		missSendLen = flag.Uint("miss-send-len", openflow.DefaultMissSendLen, "packet_in truncation pushed via SET_CONFIG")
		idle        = flag.Uint("idle-timeout", 0, "rule idle timeout in seconds")
		hard        = flag.Uint("hard-timeout", 0, "rule hard timeout in seconds")

		maxConns    = flag.Int("max-conns", 0, "max concurrent switch connections (0 = unlimited)")
		acceptRate  = flag.Float64("accept-rate", 0, "admission token bucket: accepted connections per second (0 = unlimited)")
		acceptBurst = flag.Int("accept-burst", 0, "admission token bucket burst (0 = default when -accept-rate is set)")
		writeQueue  = flag.Int("write-queue", 0, "per-connection outbound queue depth (0 = default 512; negative values are rejected)")
		echo        = flag.Duration("echo-interval", 5*time.Second, "keepalive probe interval; silent peers are evicted (0 = off)")
		handshakeTO = flag.Duration("handshake-timeout", 10*time.Second, "max time from accept to FEATURES_REPLY")
		stallTO     = flag.Duration("stall-timeout", 2*time.Second, "slow-consumer bound before a stalled connection is evicted")
		drainTO     = flag.Duration("drain-timeout", 2*time.Second, "graceful-drain bound on shutdown")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	spec, err := topo.ParseSpec(*topoSpec)
	if err != nil {
		logger.Printf("ofctl: %v", err)
		return 2
	}
	g, err := topo.Build(spec)
	if err != nil {
		logger.Printf("ofctl: %v", err)
		return 2
	}
	app := topo.NewPathForwarder(g, topo.InstallHopByHop, controller.ForwarderConfig{
		IdleTimeout: uint16(*idle),
		HardTimeout: uint16(*hard),
	})

	cfg := controller.ServerConfig{
		MissSendLen:      uint16(*missSendLen),
		Logger:           logger,
		MaxConns:         *maxConns,
		AcceptRate:       *acceptRate,
		AcceptBurst:      *acceptBurst,
		WriteQueue:       *writeQueue,
		EchoInterval:     *echo,
		HandshakeTimeout: *handshakeTO,
		StallTimeout:     *stallTO,
		DrainTimeout:     *drainTO,
		OnPressure: func(level int) {
			logger.Printf("ofctl: admission pressure level %d", level)
		},
	}
	switch *bufferMode {
	case "":
	case "none":
		cfg.Buffer = &openflow.FlowBufferConfig{Granularity: openflow.GranularityNone}
	case "packet":
		cfg.Buffer = &openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket}
	case "flow":
		cfg.Buffer = &openflow.FlowBufferConfig{
			Granularity:        openflow.GranularityFlow,
			RerequestTimeoutMs: uint32(*rerequest / time.Millisecond),
			MaxPacketsPerFlow:  uint32(*maxPerFlow),
		}
	default:
		logger.Printf("ofctl: unknown -buffer %q (want none, packet or flow)", *bufferMode)
		return 2
	}

	srv, err := controller.NewServer(cfg, app)
	if err != nil {
		logger.Printf("ofctl: %v", err)
		return 1
	}
	if err := srv.Listen(*listen); err != nil {
		logger.Printf("ofctl: %v", err)
		return 1
	}
	logger.Printf("ofctl: listening on %s", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("ofctl: shutting down (draining %d connections)", len(srv.Conns()))
	if err := srv.Close(); err != nil {
		logger.Printf("ofctl: close: %v", err)
		return 1
	}
	packetIns, _, _, unroutable := app.Stats()
	rerouted, blackholes := app.RecoveryStats()
	logger.Printf("ofctl: handled %d packet_ins (%d unroutable, %d blackholed); %d edges down, %d next hops rerouted",
		packetIns, unroutable, blackholes, app.FailedEdges(), rerouted)
	st := srv.Stats()
	logger.Printf("ofctl: lifetime: accepted %d (rejected %d, rate-limited %d), msgs in %d out %d, shed %d, evictions: handshake %d keepalive %d stall %d, write errors %d, framing errors %d",
		st.Accepted, st.AdmissionRejected, st.RateLimited, st.MsgsIn, st.MsgsOut, st.Shed,
		st.HandshakeTimeouts, st.KeepaliveEvictions, st.StallEvictions, st.WriteErrors, st.FramingErrors)
	return 0
}
