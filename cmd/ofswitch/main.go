// Command ofswitch runs the live-mode software switch: a real OpenFlow TCP
// client around the repository's datapath — the Open vSwitch role in the
// paper's testbed. With -pktgen it also plays Host1, injecting a pktgen
// workload into port 1 and reporting what leaves the other ports, so a
// single ofctl + ofswitch pair over loopback reproduces the paper's Fig. 1
// end to end on real sockets.
//
// Usage:
//
//	ofswitch -controller 127.0.0.1:6633 -buffer packet -capacity 256
//	ofswitch -controller 127.0.0.1:6633 -pktgen 50 -flows 1000
//	ofswitch -controller 127.0.0.1:6633 -flap 2@500ms..1.5s
//
// -flap PORT@DOWN..UP simulates a link flap: the port goes down DOWN after
// connect and comes back at UP, each transition announced to the controller
// with a port_status message (plus flow_removed for evicted rules) — the
// live-mode form of the fabric's failure injection. On SIGINT/SIGTERM the
// switch shuts down gracefully: the workload stops, the final traffic
// counters are flushed to the log, and the control connection is drained.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		controllerAddr = flag.String("controller", "127.0.0.1:6633", "controller TCP address")
		dpid           = flag.Uint64("dpid", 1, "datapath id")
		ports          = flag.Int("ports", 2, "number of data ports")
		bufferMode     = flag.String("buffer", "packet", "buffer mode: none, packet or flow")
		capacity       = flag.Int("capacity", 256, "buffer units")
		rerequest      = flag.Duration("rerequest", 50*time.Millisecond, "flow-granularity re-request timeout")
		tableCap       = flag.Int("table-capacity", 0, "flow table bound (0 = unbounded)")
		pktgenRate     = flag.Float64("pktgen", 0, "inject a pktgen workload at this rate in Mbps (0 = off)")
		flows          = flag.Int("flows", 1000, "pktgen flow count")
		frameSize      = flag.Int("frame-size", 1000, "pktgen frame size in bytes")
		flap           = flag.String("flap", "", "simulate a link flap: PORT@DOWN..UP (e.g. 2@500ms..1.5s)")

		reconnect    = flag.Bool("reconnect", false, "redial the controller automatically with exponential backoff")
		echo         = flag.Duration("echo-interval", 5*time.Second, "keepalive probe interval; a silent controller is reported dead (0 = off)")
		dialTimeout  = flag.Duration("dial-timeout", 10*time.Second, "bound on each controller dial (0 = OS default)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "bound on each control write before the channel is declared dead (0 = off)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)

	var flapPort uint16
	var flapDown, flapUp time.Duration
	if *flap != "" {
		var err error
		flapPort, flapDown, flapUp, err = parseFlap(*flap)
		if err != nil {
			logger.Printf("ofswitch: %v", err)
			return 2
		}
	}

	buf := openflow.FlowBufferConfig{}
	switch *bufferMode {
	case "none":
		buf.Granularity = openflow.GranularityNone
	case "packet":
		buf.Granularity = openflow.GranularityPacket
	case "flow":
		buf.Granularity = openflow.GranularityFlow
		buf.RerequestTimeoutMs = uint32(*rerequest / time.Millisecond)
	default:
		logger.Printf("ofswitch: unknown -buffer %q (want none, packet or flow)", *bufferMode)
		return 2
	}

	agent, err := switchd.NewAgent(switchd.AgentConfig{
		Datapath: switchd.Config{
			DatapathID:     *dpid,
			NumPorts:       *ports,
			TableCapacity:  *tableCap,
			Buffer:         buf,
			BufferCapacity: *capacity,
		},
		Logger:       logger,
		EchoInterval: *echo,
		DialTimeout:  *dialTimeout,
		WriteTimeout: *writeTimeout,
		Reconnect:    switchd.ReconnectConfig{Enable: *reconnect},
		OnDisconnect: func(err error) {
			logger.Printf("ofswitch: control channel down: %v", err)
		},
		OnReconnect: func(attempts int) {
			logger.Printf("ofswitch: control channel re-established after %d attempts", attempts)
		},
	})
	if err != nil {
		logger.Printf("ofswitch: %v", err)
		return 1
	}

	var egress atomic.Int64
	agent.SetTransmit(func(port uint16, frame []byte) {
		egress.Add(1)
	})

	if err := agent.Connect(*controllerAddr); err != nil {
		logger.Printf("ofswitch: %v", err)
		return 1
	}
	logger.Printf("ofswitch: datapath %016x connected to %s (%s buffer, %d units)",
		*dpid, *controllerAddr, *bufferMode, *capacity)

	if *flap != "" {
		port := flapPort
		logger.Printf("ofswitch: will flap port %d down at +%v, up at +%v", port, flapDown, flapUp)
		time.AfterFunc(flapDown, func() {
			if err := agent.SetPortDown(port, true); err != nil {
				logger.Printf("ofswitch: flap down: %v", err)
				return
			}
			logger.Printf("ofswitch: port %d link down (port_status sent)", port)
		})
		time.AfterFunc(flapUp, func() {
			if err := agent.SetPortDown(port, false); err != nil {
				logger.Printf("ofswitch: flap up: %v", err)
				return
			}
			logger.Printf("ofswitch: port %d link up (port_status sent)", port)
		})
	}

	stopping := make(chan struct{})
	done := make(chan struct{})
	if *pktgenRate > 0 {
		sched, err := pktgen.SinglePacketFlows(pktgen.Config{
			FrameSize: *frameSize,
			RateMbps:  *pktgenRate,
			Jitter:    0.5,
			SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
			DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
			DstIP:     netip.MustParseAddr("10.0.0.2"),
		}, *flows)
		if err != nil {
			logger.Printf("ofswitch: building workload: %v", err)
			return 1
		}
		logger.Printf("ofswitch: injecting %d flows at %g Mbps", *flows, *pktgenRate)
		go func() {
			defer close(done)
			start := time.Now()
			for _, e := range sched {
				if wait := e.At - time.Since(start); wait > 0 {
					select {
					case <-stopping:
						logger.Printf("ofswitch: workload stopped by shutdown")
						return
					case <-time.After(wait):
					}
				}
				if err := agent.InjectFrame(1, e.Frame); err != nil {
					logger.Printf("ofswitch: inject: %v", err)
					return
				}
			}
			// Give in-flight control round trips a moment to finish.
			select {
			case <-stopping:
			case <-time.After(time.Second):
			}
		}()
	} else {
		close(done)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		// Graceful shutdown: stop the workload, let it acknowledge, flush
		// the final counters, then drain the control connection.
		logger.Printf("ofswitch: signal received, draining")
		close(stopping)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			logger.Printf("ofswitch: workload did not stop in time")
		}
	case <-done:
		if *pktgenRate > 0 {
			break
		}
		<-sig // no workload: wait for the operator
		logger.Printf("ofswitch: signal received, draining")
	}
	rx, rxB, tx, txB, misses := agent.Stats()
	logger.Printf("ofswitch: final: rx %d frames (%d B), tx %d frames (%d B), %d misses, %d egress callbacks, %d rules installed",
		rx, rxB, tx, txB, misses, egress.Load(), agent.TableLen())
	ts := agent.TimerStats()
	logger.Printf("ofswitch: final: deadline timer fired %d times (%d with nothing due), set %d times",
		ts.Ticks, ts.EarlyTicks, ts.Rearms)
	if err := agent.Close(); err != nil {
		logger.Printf("ofswitch: close: %v", err)
		return 1
	}
	logger.Printf("ofswitch: control connection closed")
	return 0
}

// parseFlap parses PORT@DOWN..UP, e.g. "2@500ms..1.5s".
func parseFlap(s string) (port uint16, down, up time.Duration, err error) {
	at := strings.Index(s, "@")
	if at < 0 {
		return 0, 0, 0, fmt.Errorf("flap %q: want PORT@DOWN..UP", s)
	}
	p, err := strconv.ParseUint(s[:at], 10, 16)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("flap %q: bad port: %v", s, err)
	}
	rest := s[at+1:]
	dots := strings.Index(rest, "..")
	if dots < 0 {
		return 0, 0, 0, fmt.Errorf("flap %q: want PORT@DOWN..UP", s)
	}
	down, err = time.ParseDuration(rest[:dots])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("flap %q: bad down time: %v", s, err)
	}
	up, err = time.ParseDuration(rest[dots+2:])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("flap %q: bad up time: %v", s, err)
	}
	if up <= down {
		return 0, 0, 0, fmt.Errorf("flap %q: up %v must follow down %v", s, up, down)
	}
	return uint16(p), down, up, nil
}
