package switchd_test

import (
	"bytes"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/switchd"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLivePortFlapEmitsPortStatus pins the live-mode failure surface: an
// agent-side port flap evicts the rules egressing the port, ships
// flow_removed and port_status over the real TCP control channel, and the
// controller prints both transitions. Repeats stay silent.
func TestLivePortFlapEmitsPortStatus(t *testing.T) {
	app := lineApp(t)
	var logged syncBuffer
	server, err := controller.NewServer(controller.ServerConfig{
		Logger: log.New(&logged, "", 0),
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })

	agent, err := switchd.NewAgent(switchd.AgentConfig{Datapath: switchd.Config{
		DatapathID: 1, NumPorts: 2,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 64,
	}})
	if err != nil {
		t.Fatal(err)
	}
	agent.SetTransmit(func(uint16, []byte) {})
	if err := agent.Connect(server.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })

	// Install a rule egressing port 2 via the normal miss path, so the flap
	// has something to evict.
	if err := agent.InjectFrame(1, liveFrame(t, "10.1.0.1", 1000)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agent.TableLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rule never installed")
		}
		time.Sleep(time.Millisecond)
	}

	if err := agent.SetPortDown(2, true); err != nil {
		t.Fatalf("SetPortDown: %v", err)
	}
	if err := agent.SetPortDown(2, true); err != nil { // repeat: silent
		t.Fatal(err)
	}
	waitLog := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(logged.String(), want) {
			if time.Now().After(deadline) {
				t.Fatalf("controller never logged %q; log:\n%s", want, logged.String())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitLog("port 2 (eth2) link down")
	if agent.TableLen() != 0 {
		t.Fatalf("table len = %d after port down", agent.TableLen())
	}

	if err := agent.SetPortDown(2, false); err != nil {
		t.Fatal(err)
	}
	waitLog("port 2 (eth2) link up")
	if got := strings.Count(logged.String(), "port_status"); got != 2 {
		t.Fatalf("%d port_status lines, want 2 (repeat flap must stay silent):\n%s", got, logged.String())
	}
	if err := agent.SetPortDown(9, true); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}
