package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/core"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/switchd"
)

// Live workloads run generator and system in this one process over real
// loopback TCP (not a real link). Timers in the sandbox tick at about 1 ms,
// so nothing here paces by sleeping: every workload is a closed loop with a
// fixed number of requests outstanding — which is also what a switch is, its
// buffer bounding the packet_ins it can have in flight.

// liveConns is the number of client connections of the live-ctl workloads.
func liveConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

const (
	frameLen   = 1000 // the paper's frame size
	genFlows   = 512  // distinct flows a client cycles through
	ipOff      = packet.EthernetHeaderLen
	udpOff     = packet.EthernetHeaderLen + packet.IPv4HeaderLen
	payloadOff = udpOff + packet.UDPHeaderLen
)

var liveRoutes = []controller.Route{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Port: 2}}

// dataFrame serializes the 1000-byte UDP frame of flow id: forged source
// 10.1.x.y as pktgen does, IP id = seq.
func dataFrame(flow uint32, seq uint16) ([]byte, error) {
	return (&packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		IPID:      seq,
		SrcIP:     netip.AddrFrom4([4]byte{10, 1 + byte(flow>>16)&0x7f, byte(flow >> 8), byte(flow)}),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   10000 + uint16(flow>>23),
		DstPort:   9,
		Payload:   make([]byte, frameLen-payloadOff),
	}).Serialize()
}

// packetInTemplates pre-encodes one buffered packet_in per flow: the first
// miss_send_len bytes of the flow's frame, as a switch with a buffer sends.
func packetInTemplates(flows int) (tmpl []byte, msgLen int, err error) {
	for f := 0; f < flows; f++ {
		frame, err := dataFrame(uint32(f), 0)
		if err != nil {
			return nil, 0, err
		}
		msg, err := openflow.Encode(&openflow.PacketIn{
			TotalLen: frameLen,
			InPort:   1,
			Reason:   openflow.ReasonNoMatch,
			Data:     frame[:openflow.DefaultMissSendLen],
		}, 0)
		if err != nil {
			return nil, 0, err
		}
		tmpl, msgLen = append(tmpl, msg...), len(msg)
	}
	return tmpl, msgLen, nil
}

// ofClient is one raw OpenFlow connection of the generator: a single
// goroutine that tops its window up with one write, blocks in one read, and
// accounts every complete message of what came back. No decode, no channel
// hand-off, no allocation in the loop — the generator must stay well below
// the cost of what it measures (see the gen_ceiling self-check).
type ofClient struct {
	conn    net.Conn
	window  int
	tmpl    []byte
	msgLen  int
	order   []uint32 // flow ids in seeded order
	sentAt  []int64  // by xid modulo len, ns since t0
	wbuf    []byte
	rbuf    []byte
	lat     []uint32 // this client's part of the generator's sample store
	sent    int64
	flowMod int64
	pktOut  int64
	bytes   int64 // written plus read
	err     error
}

func newOFClient(addr string, dpid uint64, window int, tmpl []byte, msgLen int, seed int64, lat []uint32) (*ofClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &ofClient{conn: conn, window: window, tmpl: tmpl, msgLen: msgLen, lat: lat}
	ring := 1
	for ring < 2*window {
		ring <<= 1
	}
	c.sentAt = make([]int64, ring)
	c.wbuf = make([]byte, 0, window*msgLen)
	c.rbuf = make([]byte, 64<<10)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range rng.Perm(len(tmpl) / msgLen) {
		c.order = append(c.order, uint32(f))
	}
	// Handshake: the server opens with hello + features_request.
	r := openflow.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	for got := 0; got < 2; got++ {
		if _, _, err := r.ReadMessage(); err != nil {
			conn.Close()
			return nil, fmt.Errorf("handshake read: %w", err)
		}
	}
	w := openflow.NewWriter(conn)
	if err := w.AppendMessage(&openflow.Hello{}, 1); err != nil {
		conn.Close()
		return nil, err
	}
	if err := w.AppendMessage(&openflow.FeaturesReply{DatapathID: dpid, NTables: 1}, 2); err != nil {
		conn.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// run keeps window packet_ins outstanding until deadline, then drains.
// Replies come back in request order on a connection (the server dispatches
// a connection's messages serially), which run checks by xid.
func (c *ofClient) run(t0, deadline time.Time) {
	_ = c.conn.SetDeadline(deadline.Add(10 * time.Second))
	mask := uint32(len(c.sentAt) - 1)
	nextXid, expect := uint32(1), uint32(1)
	outstanding, have := 0, 0
	for {
		now := time.Now()
		if outstanding < c.window && now.Before(deadline) {
			ns := int64(now.Sub(t0))
			c.wbuf = c.wbuf[:0]
			for ; outstanding < c.window; outstanding++ {
				flow := int(c.order[c.sent%int64(len(c.order))])
				off := len(c.wbuf)
				c.wbuf = append(c.wbuf, c.tmpl[flow*c.msgLen:(flow+1)*c.msgLen]...)
				binary.BigEndian.PutUint32(c.wbuf[off+4:], nextXid) // xid
				binary.BigEndian.PutUint32(c.wbuf[off+8:], nextXid) // buffer_id
				c.sentAt[nextXid&mask] = ns
				nextXid++
				c.sent++
			}
			if _, err := c.conn.Write(c.wbuf); err != nil {
				c.err = fmt.Errorf("write: %w", err)
				return
			}
			c.bytes += int64(len(c.wbuf))
		}
		if outstanding == 0 && c.pktOut == c.flowMod {
			return // past the deadline and fully drained
		}
		n, err := c.conn.Read(c.rbuf[have:])
		if err != nil {
			c.err = fmt.Errorf("read with %d outstanding: %w", outstanding, err)
			return
		}
		have += n
		c.bytes += int64(n)
		ns := int64(time.Since(t0))
		off := 0
		for have-off >= openflow.HeaderLen {
			l := int(binary.BigEndian.Uint16(c.rbuf[off+2:]))
			if l < openflow.HeaderLen || l > len(c.rbuf) {
				c.err = fmt.Errorf("bad frame length %d", l)
				return
			}
			if have-off < l {
				break
			}
			switch openflow.MsgType(c.rbuf[off+1]) {
			case openflow.TypeFlowMod:
				xid := binary.BigEndian.Uint32(c.rbuf[off+4:])
				if xid != expect {
					c.err = fmt.Errorf("flow_mod xid %d, expected %d", xid, expect)
					return
				}
				expect++
				if len(c.lat) < cap(c.lat) {
					c.lat = append(c.lat, clampNs(ns-c.sentAt[xid&mask]))
				}
				outstanding--
				c.flowMod++
			case openflow.TypePacketOut:
				c.pktOut++
			}
			off += l
		}
		have = copy(c.rbuf, c.rbuf[off:have])
	}
}

// ofGen is a set of clients driven together.
type ofGen struct {
	clients []*ofClient
	lat     []uint32 // one store for all clients' samples, a region each
}

// clampNs fits a latency into the sample store's 32 bits (4.29 s).
func clampNs(ns int64) uint32 {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

func newOFGen(addr string, conns, window int, seed int64, dur time.Duration) (*ofGen, error) {
	tmpl, msgLen, err := packetInTemplates(genFlows)
	if err != nil {
		return nil, err
	}
	// Room for 400k round trips per connection-second, twice what the
	// fastest responder reaches here; past it latencies stop being recorded
	// and the count of samples says so.
	latCap := int(dur.Seconds()*400e3) + 1024
	g := &ofGen{lat: make([]uint32, conns*latCap)}
	for i := 0; i < conns; i++ {
		c, err := newOFClient(addr, uint64(i+1), window, tmpl, msgLen, seed+int64(i), g.lat[i*latCap:i*latCap:(i+1)*latCap])
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *ofGen) run(dur time.Duration) *outcome {
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *ofClient) {
			defer wg.Done()
			c.run(t0, deadline)
		}(c)
	}
	wg.Wait()
	out := &outcome{}
	n := 0
	for i, c := range g.clients {
		out.Attempted += c.sent
		out.Ops += c.flowMod
		n += copy(g.lat[n:], c.lat) // close the gap between the regions
		if c.err != nil {
			out.fail("connection %d: %v", i, c.err)
		}
		if c.flowMod != c.sent || c.pktOut != c.sent {
			out.fail("connection %d: sent %d packet_ins, got %d flow_mods and %d packet_outs",
				i, c.sent, c.flowMod, c.pktOut)
		}
	}
	out.LatNs = g.lat[:n]
	return out
}

func (g *ofGen) close() {
	for _, c := range g.clients {
		c.conn.Close()
	}
}

// checkServer turns the server's lifetime counters into check failures.
func checkServer(out *outcome, st controller.ServerStats) {
	if st.Shed != 0 || st.FramingErrors != 0 || st.WriteErrors != 0 ||
		st.StallEvictions != 0 || st.KeepaliveEvictions != 0 || st.HandshakeTimeouts != 0 {
		out.fail("server stats: %+v", st)
	}
}

func addServerCounts(out *outcome, st controller.ServerStats) {
	if out.Counts == nil {
		out.Counts = map[string]float64{}
	}
	out.Counts["controller.msgs_in"] = float64(st.MsgsIn)
	out.Counts["controller.msgs_out"] = float64(st.MsgsOut)
	out.Counts["controller.shed"] = float64(st.Shed)
	out.Counts["openflow.ctrl_msgs"] = float64(st.MsgsIn + st.MsgsOut)
}

// waitFor polls cond without trusting the sandbox's timers for pacing.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// liveCtl is raw clients against controller.Server running the reactive
// forwarder, window packet_ins outstanding per connection.
func liveCtl(name, why string, window int) *workload {
	return &workload{
		// Repeats of 2.4 s, five to a run: a repeat's throughput wanders by
		// 4 % here with generator and server sharing two cores, and the
		// median of five is steadier than that of three longer ones.
		Name: name, Why: why, Live: true, RepSeconds: 2.4, FullReps: 5,
		start: func(c runCtx) (func() (*outcome, error), func(*outcome), error) {
			app, err := controller.NewReactiveForwarder(controller.ForwarderConfig{Routes: liveRoutes})
			if err != nil {
				return nil, nil, err
			}
			srv, err := controller.NewServer(controller.ServerConfig{}, app)
			if err != nil {
				return nil, nil, err
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				return nil, nil, err
			}
			gen, err := newOFGen(srv.Addr(), liveConns(), window, c.Seed, c.Dur)
			if err == nil {
				err = waitFor("connections ready", func() bool {
					ready := 0
					for _, ci := range srv.Conns() {
						if ci.State == controller.StateReady {
							ready++
						}
					}
					return ready == liveConns()
				})
			}
			if err != nil {
				if gen != nil {
					gen.close()
				}
				srv.Close()
				return nil, nil, err
			}
			run := func() (*outcome, error) { return gen.run(c.Dur), nil }
			stop := func(out *outcome) {
				// The server counts a batch as written after the write returns,
				// which can be after the client has read it: let it settle. If
				// it never does, the comparison below says so.
				handshake := uint64(2 * liveConns())
				wantIn, wantOut := uint64(out.Attempted)+handshake, 2*uint64(out.Attempted)+handshake
				_ = waitFor("server counters", func() bool {
					st := srv.Stats()
					return st.MsgsIn >= wantIn && st.MsgsOut >= wantOut
				})
				st := srv.Stats()
				gen.close()
				srv.Close()
				if c.SetupOnly {
					return
				}
				checkServer(out, st)
				if st.MsgsIn != wantIn || st.MsgsOut != wantOut {
					out.fail("server saw %d in / %d out for %d packet_ins", st.MsgsIn, st.MsgsOut, out.Attempted)
				}
				if c.Counts {
					addServerCounts(out, st)
					out.Counts["openflow.packet_ins"] = float64(out.Attempted)
					out.Counts["openflow.flow_mods"] = float64(out.Ops)
					out.Counts["openflow.packet_outs"] = float64(out.Ops)
					for _, cl := range gen.clients {
						out.Counts["openflow.ctrl_bytes"] += float64(cl.bytes)
					}
				}
			}
			return run, stop, nil
		},
	}
}

var liveCtlW1 = liveCtl("live-ctl-w1",
	"2 raw OpenFlow clients vs controller.Server, 1 packet_in outstanding each: unloaded latency (hand-offs, queue, a syscall pair per message); batching cannot help here",
	1)

var liveCtlW32 = liveCtl("live-ctl-w32",
	"same server, 32 packet_ins outstanding per connection: controller capacity (write batching, codec, app, allocations); a gain here that costs -w1 latency must show",
	32)

// The live switch: one switchd.Agent against controller.Server, both daemons
// of the paper's Fig. 1 on the wall clock. A flow is its first frame — a miss,
// buffered, packet_in, flow_mod, packet_out, release — and three more frames
// injected once the first has egressed, which hit the new rule. The issue's
// shape, all four frames back to back, is not used: on HEAD a frame that hits
// the just-installed rule on the injecting goroutine can overtake the release
// of its buffered predecessors on the agent's read loop (about one flow in
// 500 here), and a workload must not fail the order check it runs.
const (
	switchWindow   = 8 // flows with their set-up outstanding
	framesPerFlow  = 4
	flowRing       = 1 << 12 // flows tracked at once; far above the window
	frameSlotCount = flowRing * framesPerFlow
)

// flowSlot tracks one in-flight flow of the live-switch workload.
type flowSlot struct {
	n       atomic.Int64 // flow sequence number occupying the slot
	startNs atomic.Int64
	next    atomic.Int32 // sequence number the next egress must carry
}

type switchRun struct {
	agent  *switchd.Agent
	t0     time.Time
	tmpl   []byte
	frames []byte // frameSlotCount frame buffers, reused round robin
	slots  []flowSlot
	stride uint32 // seeded odd multiplier: flow n gets id n*stride
	// setUp carries the flows whose first frame has egressed back to the
	// injecting goroutine; it has room for the whole window.
	setUp chan int64

	lat       []uint32
	latN      atomic.Int64
	egressed  atomic.Int64
	misorders atomic.Int64
	strays    atomic.Int64
}

// transmit is the agent's egress callback. It runs on agent goroutines, so
// it only touches atomics and never blocks, and it never injects: the next
// frames are sent by the goroutine that reads setUp.
func (r *switchRun) transmit(port uint16, frame []byte) {
	if port != 2 || len(frame) != frameLen {
		r.strays.Add(1)
		return
	}
	n := int64(binary.BigEndian.Uint64(frame[payloadOff:]))
	seq := int32(binary.BigEndian.Uint16(frame[ipOff+4:]))
	slot := &r.slots[n&(flowRing-1)]
	if slot.n.Load() != n {
		r.strays.Add(1)
		return
	}
	if slot.next.Add(1)-1 != seq {
		r.misorders.Add(1)
	}
	r.egressed.Add(1)
	if seq == 0 {
		if i := r.latN.Add(1) - 1; int(i) < len(r.lat) {
			r.lat[i] = clampNs(int64(time.Since(r.t0)) - slot.startNs.Load())
		}
		select {
		case r.setUp <- n:
		default:
			r.strays.Add(1)
		}
	}
}

// inject sends frame seq of flow n into port 1, as a host NIC would.
func (r *switchRun) inject(n int64, seq int) error {
	id := uint32(n) * r.stride & (1<<23 - 1)
	i := int(n*framesPerFlow+int64(seq)) % frameSlotCount
	f := r.frames[i*frameLen : (i+1)*frameLen]
	copy(f, r.tmpl)
	ip := f[ipOff:udpOff]
	binary.BigEndian.PutUint16(ip[4:], uint16(seq))
	ip[13], ip[14], ip[15] = 1+byte(id>>16), byte(id>>8), byte(id)
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], packet.Checksum(ip))
	binary.BigEndian.PutUint16(f[udpOff+6:], 0) // UDP checksum not computed
	binary.BigEndian.PutUint64(f[payloadOff:], uint64(n))
	return r.agent.InjectFrame(1, f)
}

// begin starts flow n with its first frame.
func (r *switchRun) begin(n int64) error {
	slot := &r.slots[n&(flowRing-1)]
	slot.next.Store(0)
	slot.startNs.Store(int64(time.Since(r.t0)))
	slot.n.Store(n)
	return r.inject(n, 0)
}

func (r *switchRun) run(dur time.Duration) (*outcome, error) {
	out := &outcome{}
	deadline := time.Now().Add(dur)
	// One watchdog for the whole region: a timer per wait would allocate in
	// the loop whose allocations are being counted.
	stuck := make(chan struct{})
	watchdog := time.AfterFunc(dur+10*time.Second, func() { close(stuck) })
	defer watchdog.Stop()
	var begun, done int64
	for ; begun < switchWindow; begun++ {
		if err := r.begin(begun); err != nil {
			return nil, err
		}
	}
	for done < begun {
		var n int64
		select {
		case n = <-r.setUp:
		case <-stuck:
			out.fail("flow set-ups stopped completing: %d of %d", done, begun)
			out.Attempted, out.Ops = begun, done
			return out, nil
		}
		for seq := 1; seq < framesPerFlow; seq++ {
			if err := r.inject(n, seq); err != nil {
				return nil, err
			}
		}
		done++
		if time.Now().Before(deadline) {
			if err := r.begin(begun); err != nil {
				return nil, err
			}
			begun++
		}
	}
	out.Attempted, out.Ops = begun, done
	// Hits are transmitted inside InjectFrame, so nothing is in flight now.
	if got, want := r.egressed.Load(), begun*framesPerFlow; got != want {
		out.fail("%d frames egressed for %d injected", got, want)
	}
	if m, s := r.misorders.Load(), r.strays.Load(); m != 0 || s != 0 {
		out.fail("%d frames out of order, %d unexpected egress events", m, s)
	}
	n := int(r.latN.Load())
	if n > len(r.lat) {
		n = len(r.lat)
	}
	out.LatNs = r.lat[:n]
	return out, nil
}

var liveSwitch = &workload{
	Name: "live-switch",
	Why:  "one switchd.Agent vs controller.Server, flow-granularity, 8 flow set-ups outstanding, a miss then 3 hits per flow: the paper's flow set-up delay on the wall clock through both daemons",
	Live: true, RepSeconds: 4, FullReps: 5,
	start: func(c runCtx) (func() (*outcome, error), func(*outcome), error) {
		app, err := controller.NewReactiveForwarder(controller.ForwarderConfig{Routes: liveRoutes, IdleTimeout: 1})
		if err != nil {
			return nil, nil, err
		}
		srv, err := controller.NewServer(controller.ServerConfig{
			Buffer: &openflow.FlowBufferConfig{Granularity: openflow.GranularityFlow, RerequestTimeoutMs: 200},
		}, app)
		if err != nil {
			return nil, nil, err
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		agent, err := switchd.NewAgent(switchd.AgentConfig{Datapath: switchd.Config{
			DatapathID:     1,
			NumPorts:       2,
			TableCapacity:  4096,
			BufferCapacity: 256,
		}})
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		dur := c.Dur
		r := &switchRun{
			agent:  agent,
			t0:     time.Now(),
			frames: make([]byte, frameSlotCount*frameLen),
			slots:  make([]flowSlot, flowRing),
			stride: uint32(2*c.Seed+1) * 2654435761,
			setUp:  make(chan int64, switchWindow),
			// Room for 50k set-ups a second, four times what the agent does.
			lat: make([]uint32, int(dur.Seconds()*50e3)+1024),
		}
		r.stride |= 1
		for i := range r.slots {
			r.slots[i].n.Store(-1)
		}
		if r.tmpl, err = dataFrame(0, 0); err == nil {
			agent.SetTransmit(r.transmit)
			err = agent.Connect(srv.Addr())
		}
		if err == nil {
			// The config push has no acknowledgement on the wire; the agent
			// reporting the pushed granularity is it.
			err = waitFor("buffer config push", func() bool {
				return agent.BufferGranularity() == openflow.GranularityFlow
			})
		}
		if err != nil {
			agent.Close()
			srv.Close()
			return nil, nil, err
		}
		run := func() (*outcome, error) { return r.run(dur) }
		stop := func(out *outcome) {
			st := srv.Stats()
			pktIns, _ := app.Stats()
			closeErr := agent.Close()
			srv.Close()
			if c.SetupOnly {
				return
			}
			checkServer(out, st)
			if pktIns != uint64(out.Attempted) {
				out.fail("controller handled %d packet_ins for %d flows", pktIns, out.Attempted)
			}
			if closeErr != nil && !errors.Is(closeErr, net.ErrClosed) {
				out.fail("agent close: %v", closeErr)
			}
			if c.Counts {
				addServerCounts(out, st)
				// The agent is closed: its datapath is ours to read.
				dp := agent.Datapath()
				lookups, hits, _, evictions := dp.Table().LookupStats()
				out.Counts["flowtable.lookups"] = float64(lookups)
				out.Counts["flowtable.hits"] = float64(hits)
				out.Counts["flowtable.evictions"] = float64(evictions)
				ms := dp.Mechanism().Stats(time.Since(r.t0))
				out.Counts["core.rerequests"] = float64(ms.Rerequests)
				out.Counts["core.fallbacks"] = float64(ms.DroppedNoBuffer)
				if pm, ok := dp.Mechanism().(interface{ Pool() *core.Pool }); ok {
					stored, _, _, _ := pm.Pool().Counters()
					out.Counts["core.units_stored"] = float64(stored)
				}
				out.Counts["frames"] = float64(out.Attempted * framesPerFlow)
				out.Counts["openflow.packet_ins"] = float64(pktIns)
				out.Counts["openflow.flow_mods"] = float64(pktIns)
				out.Counts["openflow.packet_outs"] = float64(pktIns)
				// Bytes are not visible from outside the two daemons; every
				// exchange has the same three messages, so size one.
				pi := &openflow.PacketIn{BufferID: 1, TotalLen: frameLen, InPort: 1, Data: r.tmpl[:openflow.DefaultMissSendLen]}
				exchange := openflow.EncodedLen(pi)
				if msgs, err := app.HandlePacketIn(pi, 0); err == nil {
					for _, m := range msgs {
						exchange += openflow.EncodedLen(m)
					}
				}
				out.Counts["openflow.ctrl_bytes"] = float64(pktIns) * float64(exchange)
			}
		}
		return run, stop, nil
	},
}
