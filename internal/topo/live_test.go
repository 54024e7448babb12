package topo

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/tablemgmt"
)

// Live mode runs the simulator's controller application: a controller.Server
// hands PathForwarder the same packet_ins, port_status, flow_removed and
// errors that SimController does, and ships its replies by connection id.

func lineGraph(t *testing.T, switches int) *Graph {
	t.Helper()
	g, err := Build(Spec{Kind: KindLine, Switches: switches})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// udpFrame is one UDP packet between two host addresses; srcPort tells flows
// apart.
func udpFrame(t *testing.T, src, dst string, srcPort uint16, payload int) []byte {
	t.Helper()
	wire, err := (&packet.Frame{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4, TTL: 64, Proto: packet.ProtoUDP,
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		SrcPort: srcPort, DstPort: 9, Payload: make([]byte, payload),
	}).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// pipeListener accepts in-memory connections, so a Server can be driven
// byte by byte without sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// readRaw reads one framed message as its wire bytes.
func readRaw(t *testing.T, c net.Conn) []byte {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, openflow.HeaderLen)
	if _, err := io.ReadFull(c, hdr); err != nil {
		t.Fatalf("reading header: %v", err)
	}
	msg := make([]byte, binary.BigEndian.Uint16(hdr[2:4]))
	copy(msg, hdr)
	if _, err := io.ReadFull(c, msg[openflow.HeaderLen:]); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return msg
}

// simAnswer feeds one packet_in to a line:1 PathForwarder behind
// SimController and returns the encoded replies.
func simAnswer(t *testing.T, cfg controller.ForwarderConfig, pi *openflow.PacketIn, xid uint32) [][]byte {
	t.Helper()
	k := sim.New(1)
	pf := NewPathForwarder(lineGraph(t, 1), InstallHopByHop, cfg)
	ctl, err := controller.NewSimController(k, controller.DefaultSimConfig(), pf)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	conn, deliver := ctl.AttachConn(func(msg []byte) { out = append(out, bytes.Clone(msg)) })
	pf.RegisterConn(conn, 0)
	deliver(openflow.MustEncode(pi, xid))
	k.Run()
	if _, appErrors := ctl.Handled(); appErrors != 0 {
		t.Fatalf("sim controller counted %d errors", appErrors)
	}
	return out
}

// liveAnswer feeds the same packet_in to a line:1 PathForwarder behind a
// Server, from a switch that announced datapath id 1, and returns the
// first n encoded replies.
func liveAnswer(t *testing.T, cfg controller.ForwarderConfig, pi *openflow.PacketIn, xid uint32, n int) [][]byte {
	t.Helper()
	srv, err := controller.NewServer(controller.ServerConfig{}, NewPathForwarder(lineGraph(t, 1), InstallHopByHop, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	srv.ServeListener(ln)
	defer func() { _ = srv.Close() }()
	c, server := net.Pipe()
	defer c.Close()
	ln.conns <- server

	for _, want := range []openflow.MsgType{openflow.TypeHello, openflow.TypeFeaturesRequest} {
		if got := openflow.MsgType(readRaw(t, c)[1]); got != want {
			t.Fatalf("server sent %v, want %v", got, want)
		}
	}
	for _, w := range []struct {
		m   openflow.Message
		xid uint32
	}{{&openflow.Hello{}, 1}, {&openflow.FeaturesReply{DatapathID: 1}, 2}, {pi, xid}} {
		if err := openflow.WriteMessage(c, w.m, w.xid); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = readRaw(t, c)
	}
	return out
}

// TestSimAndLiveAnswerWithTheSameBytes: one decision, two controllers — the
// encoded replies, xid included, are byte-identical.
func TestSimAndLiveAnswerWithTheSameBytes(t *testing.T) {
	wire := udpFrame(t, "10.0.0.1", "10.0.0.2", 1000, 900)
	buffered := &openflow.PacketIn{BufferID: 42, TotalLen: uint16(len(wire)), InPort: 1,
		Reason: openflow.ReasonNoMatch, Data: wire[:openflow.DefaultMissSendLen]}
	full := &openflow.PacketIn{BufferID: openflow.NoBuffer, TotalLen: uint16(len(wire)), InPort: 1,
		Reason: openflow.ReasonNoMatch, Data: wire}
	for _, tc := range []struct {
		name  string
		cfg   controller.ForwarderConfig
		pi    *openflow.PacketIn
		types []openflow.MsgType
	}{
		{"buffered", controller.ForwarderConfig{}, buffered,
			[]openflow.MsgType{openflow.TypeFlowMod, openflow.TypePacketOut}},
		{"no-buffer", controller.ForwarderConfig{}, full,
			[]openflow.MsgType{openflow.TypeFlowMod, openflow.TypePacketOut}},
		{"combined-flow-mod", controller.ForwarderConfig{CombinedFlowMod: true}, buffered,
			[]openflow.MsgType{openflow.TypeFlowMod}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const xid = 0x5eed
			want := simAnswer(t, tc.cfg, tc.pi, xid)
			if len(want) != len(tc.types) {
				t.Fatalf("sim answered %d messages, want %d", len(want), len(tc.types))
			}
			for i, b := range want {
				if got := openflow.MsgType(b[1]); got != tc.types[i] {
					t.Fatalf("sim reply %d is %v, want %v", i, got, tc.types[i])
				}
			}
			got := liveAnswer(t, tc.cfg, tc.pi, xid, len(want))
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("reply %d differs:\nsim  %x\nlive %x", i, want[i], got[i])
				}
			}
		})
	}
}

// liveLine is a Server running PathForwarder over a line, with real agents
// dialing it over loopback.
type liveLine struct {
	t   *testing.T
	srv *controller.Server
	pf  *PathForwarder
}

func startLiveLine(t *testing.T, switches int, mode InstallMode, cfg controller.ForwarderConfig, tm *tablemgmt.Config) *liveLine {
	t.Helper()
	pf := NewPathForwarder(lineGraph(t, switches), mode, cfg)
	if tm != nil {
		if err := pf.EnableTableMgmt(*tm); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := controller.NewServer(controller.ServerConfig{}, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &liveLine{t: t, srv: srv, pf: pf}
}

// liveSwitch is an agent with its egressed frame count.
type liveSwitch struct {
	*switchd.Agent
	egress atomic.Int64
}

// connect dials one agent announcing dpid; tableCap 0 leaves its table
// unbounded.
func (l *liveLine) connect(dpid uint64, tableCap int) *liveSwitch {
	l.t.Helper()
	a, err := switchd.NewAgent(switchd.AgentConfig{Datapath: switchd.Config{
		DatapathID: dpid, NumPorts: 2, TableCapacity: tableCap,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 64,
	}})
	if err != nil {
		l.t.Fatal(err)
	}
	sw := &liveSwitch{Agent: a}
	a.SetTransmit(func(uint16, []byte) { sw.egress.Add(1) })
	if err := a.Connect(l.srv.Addr()); err != nil {
		l.t.Fatal(err)
	}
	l.t.Cleanup(func() { _ = a.Close() })
	return sw
}

// readyConns counts the server's ready connections announcing dpid.
func (l *liveLine) readyConns(dpid uint64) int {
	n := 0
	for _, c := range l.srv.Conns() {
		if c.DatapathID == dpid && c.State == controller.StateReady {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func inject(t *testing.T, sw *liveSwitch, port uint16, frame []byte) {
	t.Helper()
	if err := sw.InjectFrame(port, frame); err != nil {
		t.Fatal(err)
	}
}

// TestLiveFeedbackReachesPathForwarder closes the loop the live server used
// to cut: port_status, flow_removed and reconnects reach the app, and its
// answers reach the right switches.
func TestLiveFeedbackReachesPathForwarder(t *testing.T) {
	t.Run("inter-switch port down flushes both switches", func(t *testing.T) {
		l := startLiveLine(t, 2, InstallPath, controller.ForwarderConfig{}, nil)
		a0, a1 := l.connect(1, 0), l.connect(2, 0)
		waitFor(t, "both datapaths ready", func() bool { return l.readyConns(1) == 1 && l.readyConns(2) == 1 })
		// Host0 → Host1 from switch 0, and Host1 → Host0 from switch 1: each
		// path install leaves a rule on both switches, and switch 0's second
		// rule egresses port 1, which the flap below does not touch.
		inject(t, a0, 1, udpFrame(t, "10.0.0.1", "10.0.0.2", 1000, 64))
		inject(t, a1, 2, udpFrame(t, "10.0.0.2", "10.0.0.1", 2000, 64))
		waitFor(t, "two rules per switch", func() bool { return a0.TableLen() == 2 && a1.TableLen() == 2 })

		// Port 2 of switch 0 is the inter-switch link.
		if err := a0.SetPortDown(2, true); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the reroute flush on both switches", func() bool { return a0.TableLen() == 0 && a1.TableLen() == 0 })
	})

	t.Run("flow_removed moves the occupancy estimate", func(t *testing.T) {
		l := startLiveLine(t, 1, InstallHopByHop, controller.ForwarderConfig{RequestFlowRemoved: true},
			&tablemgmt.Config{TableCapacity: 64, RequestFlowRemoved: true})
		a := l.connect(1, 1) // room for one rule: the second install evicts the first
		inject(t, a, 1, udpFrame(t, "10.0.0.1", "10.0.0.2", 1000, 64))
		waitFor(t, "the first flow's release", func() bool { return a.egress.Load() == 1 })
		inject(t, a, 1, udpFrame(t, "10.0.0.1", "10.0.0.2", 1001, 64))
		waitFor(t, "the second flow's release", func() bool { return a.egress.Load() == 2 })
		// The eviction's flow_removed left before the second release. Once
		// the server has read to the agent's EOF it has dispatched it, and
		// after Close the app is the test's to read.
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the server to drop the agent", func() bool { return l.srv.ConnCount() == 0 })
		if err := l.srv.Close(); err != nil {
			t.Fatal(err)
		}
		st, _ := l.pf.TableMgmt()
		if st.FlowRemovedSeen != 1 {
			t.Errorf("flow_removed seen = %d, want 1", st.FlowRemovedSeen)
		}
		if got := l.pf.tm.Occupancy(0); got != 1 {
			t.Errorf("occupancy estimate = %d after 2 installs and 1 eviction, want 1", got)
		}
	})

	t.Run("path installs follow a reconnected switch", func(t *testing.T) {
		l := startLiveLine(t, 2, InstallPath, controller.ForwarderConfig{}, nil)
		a0, old := l.connect(1, 0), l.connect(2, 0)
		waitFor(t, "the first connection of datapath 2", func() bool { return l.readyConns(2) == 1 })
		// Datapath 2 comes back on a new connection before the server has
		// noticed the old one die.
		renewed := l.connect(2, 0)
		waitFor(t, "the second connection of datapath 2", func() bool { return l.readyConns(2) == 2 })
		inject(t, a0, 1, udpFrame(t, "10.0.0.1", "10.0.0.2", 1000, 64))
		waitFor(t, "the downstream rule on the new connection", func() bool { return renewed.TableLen() == 1 })
		if n := old.TableLen(); n != 0 {
			t.Errorf("stale connection got %d rules", n)
		}

		// The old connection's eviction must not unhook the new one.
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the old connection's eviction", func() bool { return l.readyConns(2) == 1 })
		inject(t, a0, 1, udpFrame(t, "10.0.0.1", "10.0.0.2", 1001, 64))
		waitFor(t, "a second downstream rule on the new connection", func() bool { return renewed.TableLen() == 2 })
	})
}

// TestAttachDatapath pins the live connection map: datapath d is switch d−1,
// ids outside the graph are refused, the newest connection of a switch
// takes its path installs, and detaching a superseded connection leaves the
// newer one in place.
func TestAttachDatapath(t *testing.T) {
	pf := NewPathForwarder(lineGraph(t, 2), InstallPath, controller.ForwarderConfig{})
	for _, dpid := range []uint64{0, 3} {
		if err := pf.AttachDatapath(9, dpid); err == nil {
			t.Errorf("datapath %d attached to a 2-switch line", dpid)
		}
	}
	for _, c := range []struct {
		conn int
		dpid uint64
	}{{10, 1}, {20, 2}, {21, 2}} {
		if err := pf.AttachDatapath(c.conn, c.dpid); err != nil {
			t.Fatal(err)
		}
	}
	if got := pf.switchConn[1]; got != 21 {
		t.Fatalf("switch 1 installs go to conn %d, want the newest, 21", got)
	}
	pf.DetachConn(20)
	if got, ok := pf.switchConn[1]; !ok || got != 21 {
		t.Fatalf("detaching a superseded conn moved switch 1 to %d (%v)", got, ok)
	}
	pf.DetachConn(21)
	if _, ok := pf.switchConn[1]; ok || len(pf.masteredOrder) != 1 {
		t.Fatalf("switch 1 still mastered after its last conn left: %v", pf.masteredOrder)
	}
}
