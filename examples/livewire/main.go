// livewire runs the whole Fig. 1 platform on real TCP sockets instead of
// the simulator: the controller listens on loopback, the switch dials it,
// the OpenFlow handshake (including the vendor message that turns on the
// flow-granularity buffer) happens on the wire, and a pktgen burst flows
// through the live datapath.
//
//	go run ./examples/livewire
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sync"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "livewire: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Controller (Floodlight role): the simulator's PathForwarder over the
	// one-switch line — Host1 10.0.0.1 on port 1, Host2 10.0.0.2 on port 2 —
	// pushing the flow-granularity buffer config to every switch that
	// connects.
	g, err := topo.Build(topo.Spec{Kind: topo.KindLine, Switches: 1})
	if err != nil {
		return err
	}
	app := topo.NewPathForwarder(g, topo.InstallHopByHop, controller.ForwarderConfig{})
	srv, err := controller.NewServer(controller.ServerConfig{
		Buffer: &openflow.FlowBufferConfig{
			Granularity:        openflow.GranularityFlow,
			RerequestTimeoutMs: 200,
		},
	}, app)
	if err != nil {
		return err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("controller listening on %s\n", srv.Addr())

	// Switch (Open vSwitch role): datapath id 1 is the line's switch 0.
	agent, err := switchd.NewAgent(switchd.AgentConfig{
		Datapath: switchd.Config{
			DatapathID:     1,
			NumPorts:       2,
			Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
			BufferCapacity: 256,
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = agent.Close() }()

	// Host2's NIC: count frames arriving on port 2.
	var mu sync.Mutex
	var deliveredBytes int
	delivered := 0
	done := make(chan struct{}, 256)
	agent.SetTransmit(func(port uint16, frame []byte) {
		if port != 2 {
			return
		}
		mu.Lock()
		delivered++
		deliveredBytes += len(frame)
		mu.Unlock()
		done <- struct{}{}
	})
	if err := agent.Connect(srv.Addr()); err != nil {
		return err
	}
	fmt.Println("switch 1 connected; waiting for the buffer handshake...")
	deadline := time.Now().Add(5 * time.Second)
	for agent.BufferGranularity() != openflow.GranularityFlow {
		if time.Now().After(deadline) {
			return fmt.Errorf("flow-granularity config never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("switch reconfigured to the flow-granularity buffer over the wire")

	// Host1: a burst of 3 flows × 10 packets, injected as fast as the
	// kernel schedules us — the UDP no-negotiation scenario.
	sched, err := pktgen.InterleavedBursts(pktgen.Config{
		FrameSize: 1000,
		RateMbps:  80,
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:     netip.MustParseAddr("10.0.0.2"),
	}, 3, 10, 3)
	if err != nil {
		return err
	}
	for _, e := range sched {
		if err := agent.InjectFrame(1, e.Frame); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < len(sched); i++ {
		select {
		case <-done:
		case <-timeout:
			return fmt.Errorf("timed out: %d of %d frames delivered", delivered, len(sched))
		}
	}

	rx, _, tx, _, misses := agent.Stats()
	// The app is the server's to call until it closes; read it after.
	if err := srv.Close(); err != nil {
		return err
	}
	packetIns, _, _, unroutable := app.Stats()
	mu.Lock()
	fmt.Printf("\ndelivered %d/%d frames (%d bytes) to Host2 over the live datapath\n",
		delivered, len(sched), deliveredBytes)
	mu.Unlock()
	fmt.Printf("switch: rx=%d tx=%d misses=%d; controller: packet_ins=%d unroutable=%d\n",
		rx, tx, misses, packetIns, unroutable)
	fmt.Printf("table rules installed: %d\n", agent.TableLen())
	if packetIns >= uint64(len(sched)) {
		return fmt.Errorf("controller saw %d packet_ins; flow granularity should send ~1 per flow", packetIns)
	}
	fmt.Println("\n30 packets crossed a real TCP control channel with only", packetIns,
		"requests — one per flow (plus any arriving after rules landed).")
	return nil
}
