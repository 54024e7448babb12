package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"sdnbuffer/internal/controller"
	"sdnbuffer/internal/core"
	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/sim"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/telemetry"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// A layer driver times calls into one package's public functions from
// outside, on the inputs the workloads use: 1000-byte UDP frames, 128-byte
// buffered packet_ins, the workloads' table sizes. Each returns the metric's
// value in its declared unit and how many ops it executed.
type driver struct {
	metric string
	run    func(budget time.Duration) (value float64, ops int64, err error)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// timeOp measures op, which must execute its argument's number of
// iterations: it doubles the batch until one takes a tenth of the budget,
// then times five batches and reports the median ns per iteration.
func timeOp(budget time.Duration, op func(n int)) (nsPerOp float64, ops int64) {
	n := 1
	for {
		begin := time.Now()
		op(n)
		ops += int64(n)
		if el := time.Since(begin); el >= budget/10 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	for i := 0; i < 5; i++ {
		begin := time.Now()
		op(n)
		per = append(per, float64(time.Since(begin))/float64(n))
		ops += int64(n)
	}
	return median(per), ops
}

// timeBatches is for operations that consume what they are given (a rule
// can be inserted once): prep builds a batch untimed and returns the timed
// part and its size. Batches repeat until the budget is spent, at least five.
func timeBatches(budget time.Duration, prep func() (run func(), n int)) (nsPerOp float64, ops int64) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		run, n := prep()
		begin := time.Now()
		run()
		per = append(per, float64(time.Since(begin))/float64(n))
		ops += int64(n)
	}
	return median(per), ops
}

// fixtures are the inputs the drivers share.
type fixtures struct {
	wire    []byte          // one 1000-byte frame of flow 0
	wires   [][]byte        // frames of flows 0..4095
	parsed  []*packet.Frame // their parsed headers
	key     packet.FlowKey
	pktIn   *openflow.PacketIn // 128-byte buffered packet_in of flow 0
	flowMod *openflow.FlowMod  // the forwarder's answer to it
	pktOut  *openflow.PacketOut
	app     *controller.ReactiveForwarder
}

func newFixtures() (*fixtures, error) {
	fx := &fixtures{}
	for f := 0; f < 4096; f++ {
		w, err := dataFrame(uint32(f), 0)
		if err != nil {
			return nil, err
		}
		p, err := packet.ParseHeaders(w)
		if err != nil {
			return nil, err
		}
		p.Payload = nil
		fx.wires, fx.parsed = append(fx.wires, w), append(fx.parsed, p)
	}
	fx.wire = fx.wires[0]
	fx.key = fx.parsed[0].Key()
	fx.pktIn = &openflow.PacketIn{
		BufferID: 7, TotalLen: frameLen, InPort: 1, Reason: openflow.ReasonNoMatch,
		Data: fx.wire[:openflow.DefaultMissSendLen],
	}
	var err error
	if fx.app, err = controller.NewReactiveForwarder(controller.ForwarderConfig{Routes: liveRoutes}); err != nil {
		return nil, err
	}
	msgs, err := fx.app.HandlePacketIn(fx.pktIn, 1)
	if err != nil {
		return nil, err
	}
	for _, m := range msgs {
		switch t := m.(type) {
		case *openflow.FlowMod:
			fx.flowMod = t
		case *openflow.PacketOut:
			fx.pktOut = t
		}
	}
	if fx.flowMod == nil || fx.pktOut == nil {
		return nil, fmt.Errorf("forwarder answered %d messages, want flow_mod + packet_out", len(msgs))
	}
	return fx, nil
}

// rule builds the exact-match rule the forwarder installs for flow f.
func (fx *fixtures) rule(f int, idle time.Duration) *flowtable.Entry {
	return &flowtable.Entry{
		Match:       openflow.ExactMatch(1, fx.parsed[f]),
		Priority:    100,
		Actions:     fx.flowMod.Actions,
		IdleTimeout: idle,
	}
}

func (fx *fixtures) table(rules, capacity int, idle time.Duration) (*flowtable.Table, error) {
	policy := flowtable.EvictNone
	if capacity != flowtable.Unlimited {
		policy = flowtable.EvictLRU
	}
	tbl, err := flowtable.New(capacity, policy)
	if err != nil {
		return nil, err
	}
	for f := 0; f < rules; f++ {
		if _, err := tbl.Insert(0, fx.rule(f, idle)); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

func (fx *fixtures) ruleMod(f int, idleSeconds uint16) *openflow.FlowMod {
	fm := *fx.flowMod
	fm.Match = openflow.ExactMatch(1, fx.parsed[f])
	fm.IdleTimeout = idleSeconds
	return &fm
}

func encodeDriver(m openflow.Message) func(time.Duration) (float64, int64, error) {
	return func(b time.Duration) (float64, int64, error) {
		ns, ops := timeOp(b, func(n int) {
			for i := 0; i < n; i++ {
				sink, _ = openflow.Encode(m, uint32(i))
			}
		})
		return ns, ops, nil
	}
}

func decodeDriver(m openflow.Message) func(time.Duration) (float64, int64, error) {
	return func(b time.Duration) (float64, int64, error) {
		wire, err := openflow.Encode(m, 1)
		if err != nil {
			return 0, 0, err
		}
		ns, ops := timeOp(b, func(n int) {
			for i := 0; i < n; i++ {
				// Decode then release, as both simulated endpoints do.
				if dm, _, err := openflow.Decode(wire); err == nil {
					openflow.ReleaseMessage(dm)
				}
			}
		})
		return ns, ops, nil
	}
}

func scheduleFireDriver(depth int) func(time.Duration) (float64, int64, error) {
	return func(b time.Duration) (float64, int64, error) {
		k := sim.New(1)
		noop := func() {}
		for i := 0; i < depth; i++ {
			k.At(time.Hour+time.Duration(i), noop)
		}
		ns, ops := timeOp(b, func(n int) {
			for i := 0; i < n; i++ {
				k.After(time.Microsecond, noop)
				k.Step()
			}
		})
		return ns, ops, nil
	}
}

// layerDrivers lists every timing driver. Counts and the values derived
// from live probes are filled in by the traced run itself (trace.go).
func layerDrivers(fx *fixtures, fabricSpec string) []driver {
	return []driver{
		{"pktgen.build_ns_per_frame", func(b time.Duration) (float64, int64, error) {
			const flows, pkts = 64, 100
			cfg := pktgenConfig(100, singleSwitchDst)
			var err error
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink, err = pktgen.InterleavedBursts(cfg, flows, pkts, 4)
				}
			})
			return ns / (flows * pkts), ops * flows * pkts, err
		}},
		{"packet.parse_ns", func(b time.Duration) (float64, int64, error) {
			var scratch packet.Frame
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					_ = packet.ParseEthernetInto(&scratch, fx.wires[i&4095])
				}
			})
			return ns, ops, nil
		}},
		{"packet.serialize_ns", func(b time.Duration) (float64, int64, error) {
			f, err := packet.Parse(fx.wire)
			if err != nil {
				return 0, 0, err
			}
			var buf []byte
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					buf, _ = f.AppendSerialize(buf[:0])
				}
			})
			return ns, ops, nil
		}},
		{"sim.schedule_fire_d64_ns", scheduleFireDriver(64)},
		{"sim.schedule_fire_d1k_ns", scheduleFireDriver(1 << 10)},
		{"sim.schedule_fire_d16k_ns", scheduleFireDriver(16 << 10)},
		{"sim.cancel_ns", func(b time.Duration) (float64, int64, error) {
			k := sim.New(1)
			noop := func() {}
			for i := 0; i < 64; i++ {
				k.At(time.Hour+time.Duration(i), noop)
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					k.Cancel(k.After(time.Minute, noop))
				}
			})
			return ns, ops, nil
		}},
		{"sim.resource_job_ns", func(b time.Duration) (float64, int64, error) {
			k := sim.New(1)
			r := sim.NewResource(k, "cpu", 1)
			done := func() {}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i += 64 {
					for j := 0; j < 64; j++ {
						r.Submit(10*time.Microsecond, done)
					}
					k.Run()
				}
			})
			return ns, ops, nil
		}},
		{"netem.link_send_ns", func(b time.Duration) (float64, int64, error) {
			k := sim.New(1)
			l, err := netem.NewLink(k, "bench", 100, 20*time.Microsecond)
			if err != nil {
				return 0, 0, err
			}
			deliver := func() {}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i += 64 {
					for j := 0; j < 64; j++ {
						l.Send(fx.wire, deliver)
					}
					k.Run()
				}
			})
			return ns, ops, nil
		}},
		{"openflow.encode_packet_in_ns", encodeDriver(fx.pktIn)},
		{"openflow.encode_packet_in_full_ns", encodeDriver(&openflow.PacketIn{
			BufferID: openflow.NoBuffer, TotalLen: frameLen, InPort: 1, Data: fx.wire,
		})},
		{"openflow.decode_packet_in_ns", decodeDriver(fx.pktIn)},
		{"openflow.encode_flow_mod_ns", encodeDriver(fx.flowMod)},
		{"openflow.decode_flow_mod_ns", decodeDriver(fx.flowMod)},
		{"openflow.encode_packet_out_ns", encodeDriver(fx.pktOut)},
		{"openflow.decode_packet_out_ns", decodeDriver(fx.pktOut)},
		{"openflow.read_message_ns", func(b time.Duration) (float64, int64, error) {
			// The live mix: one packet_in up, flow_mod + packet_out down.
			var stream []byte
			for i := 0; i < 256; i++ {
				for _, m := range []openflow.Message{fx.pktIn, fx.flowMod, fx.pktOut} {
					w, err := openflow.Encode(m, uint32(i))
					if err != nil {
						return 0, 0, err
					}
					stream = append(stream, w...)
				}
			}
			src := bytes.NewReader(stream)
			r := openflow.NewReader(src)
			var err error
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					m, _, rerr := r.ReadMessage()
					if rerr == io.EOF {
						src.Reset(stream)
						m, _, rerr = r.ReadMessage()
					}
					if rerr != nil {
						err = rerr
						return
					}
					openflow.ReleaseMessage(m)
				}
			})
			return ns, ops, err
		}},
		{"flowtable.lookup_hit_ns", func(b time.Duration) (float64, int64, error) {
			tbl, err := fx.table(512, flowtable.Unlimited, 0)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink = tbl.Lookup(time.Duration(i), 1, fx.parsed[i&511], frameLen)
				}
			})
			return ns, ops, nil
		}},
		{"flowtable.lookup_miss_ns", func(b time.Duration) (float64, int64, error) {
			tbl, err := fx.table(256, flowtable.Unlimited, 0)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink = tbl.Lookup(time.Duration(i), 1, fx.parsed[256+i&255], frameLen)
				}
			})
			return ns, ops, nil
		}},
		{"flowtable.insert_ns", func(b time.Duration) (float64, int64, error) {
			var err error
			ns, ops := timeBatches(b, func() (func(), int) {
				tbl, _ := flowtable.New(flowtable.Unlimited, flowtable.EvictNone)
				rules := make([]*flowtable.Entry, 1024)
				for f := range rules {
					rules[f] = fx.rule(f, 0)
				}
				return func() {
					for _, e := range rules {
						if _, ierr := tbl.Insert(0, e); ierr != nil {
							err = ierr
						}
					}
				}, len(rules)
			})
			return ns, ops, err
		}},
		{"flowtable.insert_evict_ns", func(b time.Duration) (float64, int64, error) {
			tbl, err := fx.table(256, 256, 0)
			if err != nil {
				return 0, 0, err
			}
			next, now := 256, time.Duration(0)
			ns, ops := timeBatches(b, func() (func(), int) {
				rules := make([]*flowtable.Entry, 1024)
				for i := range rules {
					rules[i] = fx.rule(next&4095, 0)
					next++
				}
				return func() {
					for _, e := range rules {
						now++
						if _, ierr := tbl.Insert(now, e); ierr != nil {
							err = ierr
						}
					}
				}, len(rules)
			})
			return ns, ops, err
		}},
		{"flowtable.next_expiry_ns", func(b time.Duration) (float64, int64, error) {
			tbl, err := fx.table(4096, flowtable.Unlimited, time.Second)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink, _ = tbl.NextExpiry()
				}
			})
			return ns, ops, nil
		}},
		{"flowtable.expire_ns", func(b time.Duration) (float64, int64, error) {
			tbl, err := fx.table(4096, flowtable.Unlimited, time.Second)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink = tbl.Expire(time.Millisecond)
				}
			})
			return ns, ops, nil
		}},
		{"core.nobuffer_miss_ns", func(b time.Duration) (float64, int64, error) {
			m := core.NewNoBuffer()
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink = m.HandleMiss(time.Duration(i), 1, fx.wire, fx.key)
				}
			})
			return ns, ops, nil
		}},
		{"core.packet_cycle_ns", func(b time.Duration) (float64, int64, error) {
			m, err := core.NewPacketGranularity(256, openflow.DefaultMissSendLen, 0)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					now := time.Duration(i)
					res := m.HandleMiss(now, 1, fx.wire, fx.key)
					if _, rerr := m.Release(now, res.PacketIn.BufferID); rerr != nil {
						err = rerr
					}
				}
			})
			return ns, ops, err
		}},
		{"core.flow_cycle_ns", func(b time.Duration) (float64, int64, error) {
			m, err := core.NewFlowGranularity(256, openflow.DefaultMissSendLen, 200*time.Millisecond, 0, 0)
			if err != nil {
				return 0, 0, err
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					now := time.Duration(i)
					first := m.HandleMiss(now, 1, fx.wire, fx.key)
					for j := 0; j < 3; j++ {
						m.HandleMiss(now, 1, fx.wire, fx.key)
					}
					if rel, rerr := m.Release(now, first.PacketIn.BufferID); rerr != nil || len(rel) != 4 {
						err = fmt.Errorf("released %d of 4: %v", len(rel), rerr)
					}
				}
			})
			return ns, ops, err
		}},
		{"switchd.frame_hit_ns", func(b time.Duration) (float64, int64, error) {
			dp, err := switchd.NewDatapath(switchd.Config{NumPorts: 2})
			if err != nil {
				return 0, 0, err
			}
			for f := 0; f < 512; f++ {
				if _, err := dp.HandleFlowMod(0, fx.ruleMod(f, 0)); err != nil {
					return 0, 0, err
				}
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					res, herr := dp.HandleFrame(time.Duration(i), 1, fx.wires[i&511])
					if herr != nil || res.Matched == nil {
						err = fmt.Errorf("expected a hit: %v", herr)
					}
				}
			})
			return ns, ops, err
		}},
		{"switchd.frame_miss_ns", func(b time.Duration) (float64, int64, error) {
			return missCycle(fx, b, true)
		}},
		{"switchd.packet_out_ns", func(b time.Duration) (float64, int64, error) {
			return missCycle(fx, b, false)
		}},
		{"switchd.flow_mod_ns", func(b time.Duration) (float64, int64, error) {
			var err error
			ns, ops := timeBatches(b, func() (func(), int) {
				dp, derr := switchd.NewDatapath(switchd.Config{NumPorts: 2})
				if derr != nil {
					err = derr
					return func() {}, 1
				}
				mods := make([]*openflow.FlowMod, 1024)
				for f := range mods {
					mods[f] = fx.ruleMod(f, 0)
				}
				return func() {
					for _, fm := range mods {
						if _, herr := dp.HandleFlowMod(0, fm); herr != nil {
							err = herr
						}
					}
				}, len(mods)
			})
			return ns, ops, err
		}},
		{"switchd.agent_inject_hit_ns", func(b time.Duration) (float64, int64, error) {
			agent, err := switchd.NewAgent(switchd.AgentConfig{Datapath: switchd.Config{NumPorts: 2, TableCapacity: 4096}})
			if err != nil {
				return 0, 0, err
			}
			defer agent.Close()
			// Not connected, no frames flowing yet: the datapath is still ours.
			for f := 0; f < 4096; f++ {
				if _, err := agent.Datapath().HandleFlowMod(0, fx.ruleMod(f, 1)); err != nil {
					return 0, 0, err
				}
			}
			hits := 0
			agent.SetTransmit(func(uint16, []byte) { hits++ })
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					if ierr := agent.InjectFrame(1, fx.wires[i&4095]); ierr != nil {
						err = ierr
					}
				}
			})
			if err == nil && int64(hits) != ops {
				err = fmt.Errorf("%d hits for %d injected frames", hits, ops)
			}
			return ns, ops, err
		}},
		{"controller.app_ns", func(b time.Duration) (float64, int64, error) {
			var err error
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					sink, err = fx.app.HandlePacketIn(fx.pktIn, uint32(i))
				}
			})
			return ns, ops, err
		}},
		{"topo.path_install_ns", func(b time.Duration) (float64, int64, error) {
			g, err := buildTopo(fabricSpec)
			if err != nil {
				return 0, 0, err
			}
			pf := topo.NewPathForwarder(g, topo.InstallPath, controller.ForwarderConfig{})
			for sw := 0; sw < g.NumSwitches(); sw++ {
				pf.RegisterConn(sw, sw)
			}
			hops, err := g.HostPath(0, 1)
			if err != nil {
				return 0, 0, err
			}
			frame, err := (&packet.Frame{
				SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
				EtherType: packet.EtherTypeIPv4, TTL: 64, Proto: packet.ProtoUDP,
				SrcIP: fx.parsed[0].SrcIP, DstIP: g.Hosts()[1].Addr, SrcPort: 10000, DstPort: 9,
				Payload: make([]byte, frameLen-payloadOff),
			}).Serialize()
			if err != nil {
				return 0, 0, err
			}
			pi := &openflow.PacketIn{
				BufferID: 7, TotalLen: frameLen, InPort: hops[0].Entry,
				Data: frame[:openflow.DefaultMissSendLen],
			}
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					d, herr := pf.HandlePacketInConn(hops[0].Switch, pi, uint32(i))
					if herr != nil || len(d) < len(hops) {
						err = fmt.Errorf("path install answered %d messages for %d hops: %v", len(d), len(hops), herr)
					}
				}
			})
			return ns, ops, err
		}},
		{"telemetry.disabled_ns", func(b time.Duration) (float64, int64, error) {
			was := telemetry.Enabled()
			telemetry.SetEnabled(false)
			defer telemetry.SetEnabled(was)
			rec := telemetry.NewRecorder(telemetry.Config{SpanCapacity: 1 << 10})
			ns, ops := timeOp(b, func(n int) {
				for i := 0; i < n; i++ {
					rec.Span(telemetry.KindIngress, 0, time.Microsecond, 1, 2, frameLen)
				}
			})
			return ns, ops, nil
		}},
		{"env.timer_resolution_us", func(time.Duration) (float64, int64, error) {
			return timerResolutionUs(), 9, nil
		}},
	}
}

// missCycle alternates 256 table misses with the 256 packet_outs that
// release them (a 256-unit packet-granularity pool holds exactly one round)
// and times one side of the cycle.
func missCycle(fx *fixtures, budget time.Duration, timeMisses bool) (float64, int64, error) {
	dp, err := switchd.NewDatapath(switchd.Config{
		NumPorts:       2,
		Buffer:         openflow.FlowBufferConfig{Granularity: openflow.GranularityPacket},
		BufferCapacity: 256,
	})
	if err != nil {
		return 0, 0, err
	}
	outs := make([]*openflow.PacketOut, 256)
	now := time.Duration(0)
	misses := func() {
		for i := range outs {
			now++
			res, herr := dp.HandleFrame(now, 1, fx.wires[i])
			if herr != nil || res.Miss == nil || !res.Miss.Buffered {
				err = fmt.Errorf("expected a buffered miss: %v", herr)
				return
			}
			outs[i] = &openflow.PacketOut{BufferID: res.Miss.PacketIn.BufferID, InPort: 1, Actions: fx.pktOut.Actions}
		}
	}
	releases := func() {
		for _, po := range outs {
			now++
			res, herr := dp.HandlePacketOut(now, po)
			if herr != nil || len(res.Outputs) != 1 {
				err = fmt.Errorf("expected one released frame: %v", herr)
				return
			}
		}
	}
	ns, ops := timeBatches(budget, func() (func(), int) {
		if timeMisses {
			if outs[0] != nil {
				releases() // untimed: empty the pool for the next round
			}
			return misses, len(outs)
		}
		misses()
		return releases, len(outs)
	})
	return ns, ops, err
}

// timerResolutionUs is how long a 50 µs sleep really takes here.
func timerResolutionUs() float64 {
	var took []float64
	for i := 0; i < 9; i++ {
		begin := time.Now()
		time.Sleep(50 * time.Microsecond)
		took = append(took, float64(time.Since(begin))/1e3)
	}
	return median(took)
}

func buildTopo(spec string) (*topo.Graph, error) {
	ts, err := topo.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return topo.Build(ts)
}

// buildTimes measures the two one-shot constructions of the 1024-switch
// fabric: the graph with its routing tables, and the testbed on top of it.
func buildTimes(spec string) (topoS, testbedS float64, err error) {
	begin := time.Now()
	g, err := buildTopo(spec)
	if err != nil {
		return 0, 0, err
	}
	topoS = time.Since(begin).Seconds()
	begin = time.Now()
	fb, err := testbed.NewFabric(fabric1kSim.config(1), testbed.FabricOptions{Graph: g, Shards: 4, Install: topo.InstallPath})
	if err != nil {
		return 0, 0, err
	}
	sink = fb
	return topoS, time.Since(begin).Seconds(), nil
}
