package switchd_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/topo"
)

// liveTestbed is a controller + switch pair over real TCP loopback.
type liveTestbed struct {
	t      *testing.T
	server *controller.Server
	agent  *switchd.Agent

	mu       sync.Mutex
	received map[uint16][][]byte
	gotFrame chan struct{}
}

// lineApp is the controller application of the paper's Fig. 1 platform:
// PathForwarder over the one-switch line, whose datapath id is 1 and whose
// ports 1 and 2 face Host1 (10.0.0.1) and Host2 (10.0.0.2).
func lineApp(t *testing.T) *topo.PathForwarder {
	t.Helper()
	g, err := topo.Build(topo.Spec{Kind: topo.KindLine, Switches: 1})
	if err != nil {
		t.Fatal(err)
	}
	return topo.NewPathForwarder(g, topo.InstallHopByHop, controller.ForwarderConfig{})
}

func newLiveTestbed(t *testing.T, buffer *openflow.FlowBufferConfig, dpCfg switchd.Config) *liveTestbed {
	t.Helper()
	app := lineApp(t)
	server, err := controller.NewServer(controller.ServerConfig{Buffer: buffer}, app)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = server.Close() })

	agent, err := switchd.NewAgent(switchd.AgentConfig{Datapath: dpCfg})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	lt := &liveTestbed{
		t:        t,
		server:   server,
		agent:    agent,
		received: make(map[uint16][][]byte),
		gotFrame: make(chan struct{}, 1024),
	}
	agent.SetTransmit(func(port uint16, frame []byte) {
		lt.mu.Lock()
		lt.received[port] = append(lt.received[port], frame)
		lt.mu.Unlock()
		lt.gotFrame <- struct{}{}
	})
	if err := agent.Connect(server.Addr()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	return lt
}

func (lt *liveTestbed) waitFrames(n int, timeout time.Duration) {
	lt.t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-lt.gotFrame:
		case <-deadline:
			lt.mu.Lock()
			total := 0
			for _, fs := range lt.received {
				total += len(fs)
			}
			lt.mu.Unlock()
			lt.t.Fatalf("timed out waiting for %d frames; got %d", n, total)
		}
	}
}

func (lt *liveTestbed) countOn(port uint16) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.received[port])
}

func liveFrame(t *testing.T, srcIP string, srcPort uint16) []byte {
	t.Helper()
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr(srcIP),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   srcPort,
		DstPort:   9,
		Payload:   make([]byte, 400),
	}
	wire, err := f.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestLiveMissForwardHitCycle(t *testing.T) {
	lt := newLiveTestbed(t, nil, switchd.Config{
		DatapathID: 1, NumPorts: 2,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 64,
	})
	frame := liveFrame(t, "10.1.0.1", 1000)
	// First frame misses; the controller installs a rule and releases it.
	if err := lt.agent.InjectFrame(1, frame); err != nil {
		t.Fatalf("InjectFrame: %v", err)
	}
	lt.waitFrames(1, 5*time.Second)
	if got := lt.countOn(2); got != 1 {
		t.Fatalf("frames on port 2 = %d, want 1", got)
	}
	// Wait for the flow_mod to land, then a second frame must hit locally.
	deadline := time.Now().Add(5 * time.Second)
	for lt.agent.TableLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rule never installed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := lt.agent.InjectFrame(1, frame); err != nil {
		t.Fatal(err)
	}
	lt.waitFrames(1, 5*time.Second)
	if got := lt.countOn(2); got != 2 {
		t.Fatalf("frames on port 2 = %d, want 2", got)
	}
	_, _, _, _, misses := lt.agent.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (second frame hit)", misses)
	}
}

func TestLiveFlowGranularityBurst(t *testing.T) {
	buf := &openflow.FlowBufferConfig{
		Granularity:        openflow.GranularityFlow,
		RerequestTimeoutMs: 1000,
	}
	lt := newLiveTestbed(t, buf, switchd.Config{
		DatapathID: 1, NumPorts: 2,
		// Start with packet granularity; the server's vendor config message
		// must switch the agent to flow granularity at handshake.
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 64,
	})
	// Wait for the handshake reconfiguration to land.
	deadline := time.Now().Add(5 * time.Second)
	for lt.agent.BufferGranularity() != openflow.GranularityFlow {
		if time.Now().After(deadline) {
			t.Fatal("buffer reconfiguration never applied")
		}
		time.Sleep(time.Millisecond)
	}
	// A burst of one flow: every packet must come out, in order.
	for i := 0; i < 8; i++ {
		if err := lt.agent.InjectFrame(1, liveFrame(t, "10.1.0.9", 4242)); err != nil {
			t.Fatal(err)
		}
	}
	lt.waitFrames(8, 5*time.Second)
	if got := lt.countOn(2); got != 8 {
		t.Fatalf("frames on port 2 = %d, want 8", got)
	}
}

// TestLiveConcurrentInjectAgainstReadLoop runs several injecting goroutines
// against the agent's read loop: misses arm the deadline timer from the
// injecting side while flow_mods and releases arm it from the control side,
// on a table small enough to evict. Run under -race; every frame must come
// out, and the timer must have been set at most once per miss, control
// message and tick — never per hit.
func TestLiveConcurrentInjectAgainstReadLoop(t *testing.T) {
	buf := &openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 1000}
	lt := newLiveTestbed(t, buf, switchd.Config{
		// A unit for every flow keeps every miss on the buffered path. A miss
		// that found the pool empty would ride in its packet_in and come back
		// in a payload-carrying packet_out, which the server never sheds.
		DatapathID: 1, NumPorts: 2, TableCapacity: 16, BufferCapacity: 256,
	})
	deadline := time.Now().Add(5 * time.Second)
	for lt.agent.BufferGranularity() != openflow.GranularityFlow {
		if time.Now().After(deadline) {
			t.Fatal("buffer reconfiguration never applied")
		}
		time.Sleep(time.Millisecond)
	}
	const injectors, flows, framesPerFlow = 4, 40, 4
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < flows; f++ {
				frame := liveFrame(t, "10.1.0.1", uint16(1000+g*flows+f))
				for i := 0; i < framesPerFlow; i++ {
					if err := lt.agent.InjectFrame(1, frame); err != nil {
						t.Errorf("InjectFrame: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	const total = injectors * flows * framesPerFlow
	lt.waitFrames(total, 10*time.Second)
	if got := lt.countOn(2); got != total {
		t.Fatalf("frames on port 2 = %d, want %d (server: %+v)", got, total, lt.server.Stats())
	}
	_, _, _, _, misses := lt.agent.Stats()
	ts := lt.agent.TimerStats()
	// Two control messages (flow_mod, packet_out) answer each packet_in.
	if ts.Rearms > 3*misses+ts.Ticks {
		t.Errorf("%d frames, %d misses: timer counters %+v", total, misses, ts)
	}
}

func TestLiveEchoKeepsConnectionAlive(t *testing.T) {
	lt := newLiveTestbed(t, nil, switchd.Config{DatapathID: 1, NumPorts: 2})
	// Exercise the path indirectly: inject a frame after an idle period and
	// confirm the control channel still works.
	time.Sleep(50 * time.Millisecond)
	if err := lt.agent.InjectFrame(1, liveFrame(t, "10.1.0.2", 2000)); err != nil {
		t.Fatal(err)
	}
	lt.waitFrames(1, 5*time.Second)
}

func TestLiveAgentCloseIdempotent(t *testing.T) {
	lt := newLiveTestbed(t, nil, switchd.Config{DatapathID: 1, NumPorts: 2})
	if err := lt.agent.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := lt.agent.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := lt.agent.InjectFrame(1, liveFrame(t, "10.1.0.3", 3000)); err == nil {
		t.Error("InjectFrame after Close succeeded in sending")
	}
}

// parseHeadersForTest exposes packet header parsing to the raw agent tests.
func parseHeadersForTest(data []byte) (*packet.Frame, error) {
	return packet.ParseHeaders(data)
}
