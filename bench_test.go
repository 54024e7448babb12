package sdnbuffer

// Benchmarks of the sweep runner, ablations of the mechanism's knobs
// (DESIGN.md §5), and micro-benchmarks of the hot paths (codec, matching,
// mechanisms), exercised with -benchmem for allocation accounting. The
// per-figure sweeps are timed by `go run ./bench --workload paper-figs` and
// reproduced by cmd/benchrunner.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sdnbuffer/internal/core"
	"sdnbuffer/internal/experiments"
	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
)

// benchOpts is a scaled-down figure sweep.
func benchOpts() experiments.Options {
	return experiments.Options{
		Rates:   []float64{20, 50, 80},
		Repeats: 1,
		FlowsA:  300,
		FlowsB:  20, PktsPerFlowB: 10, GroupB: 5,
	}
}

// BenchmarkParallelScalingFig2a measures the wall-clock scaling of the
// parallel sweep runner on the fig2a grid (3 series × 3 rates × 2 repeats =
// 18 independent cells). The fold order is fixed, so every sub-benchmark
// computes bit-identical results; only the wall clock should move.
func BenchmarkParallelScalingFig2a(b *testing.B) {
	exp, err := experiments.ByID("fig2a")
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			opts := benchOpts()
			opts.Repeats = 2
			opts.Parallelism = par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(exp, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationMissSendLen sweeps the packet_in truncation length: the
// larger the header prefix, the less load reduction buffering buys.
func BenchmarkAblationMissSendLen(b *testing.B) {
	for _, msl := range []int{64, 128, 256} {
		b.Run(map[int]string{64: "msl64", 128: "msl128", 256: "msl256"}[msl], func(b *testing.B) {
			var load float64
			for i := 0; i < b.N; i++ {
				p := Platform{Mode: ModePacketGranularity, BufferUnits: 256}
				cfg, err := p.config()
				if err != nil {
					b.Fatal(err)
				}
				cfg.Switch.Datapath.MissSendLen = msl
				load = runLoadWith(b, cfg)
			}
			b.ReportMetric(load, "ctrl_Mbps")
		})
	}
}

// BenchmarkAblationBufferSize sweeps the pool size around the exhaustion
// knee at 50 Mbps.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, units := range []int{8, 16, 64, 256} {
		name := map[int]string{8: "units8", 16: "units16", 64: "units64", 256: "units256"}[units]
		b.Run(name, func(b *testing.B) {
			var fallbacks float64
			for i := 0; i < b.N; i++ {
				rep, err := Run(Platform{Mode: ModePacketGranularity, BufferUnits: units},
					SinglePacketFlows(50, 300))
				if err != nil {
					b.Fatal(err)
				}
				fallbacks = float64(rep.BufferFallbacks)
			}
			b.ReportMetric(fallbacks, "fallbacks")
		})
	}
}

// BenchmarkAblationCombinedFlowMod compares the spec's flow_mod+packet_out
// pair against the combined flow_mod-with-buffer_id variant.
func BenchmarkAblationCombinedFlowMod(b *testing.B) {
	for _, combined := range []bool{false, true} {
		name := "pair"
		if combined {
			name = "combined"
		}
		b.Run(name, func(b *testing.B) {
			var load float64
			for i := 0; i < b.N; i++ {
				p := Platform{Mode: ModePacketGranularity, BufferUnits: 256}
				cfg, err := p.config()
				if err != nil {
					b.Fatal(err)
				}
				cfg.Forwarder.CombinedFlowMod = combined
				load = runDownLoadWith(b, cfg)
			}
			b.ReportMetric(load, "down_Mbps")
		})
	}
}

// --- Micro-benchmarks ---

func benchWire(b *testing.B) []byte {
	b.Helper()
	f := &packet.Frame{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		EtherType: packet.EtherTypeIPv4,
		TTL:       64,
		Proto:     packet.ProtoUDP,
		SrcIP:     netip.MustParseAddr("10.1.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   1234,
		DstPort:   9,
		Payload:   make([]byte, 958),
	}
	wire, err := f.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

func BenchmarkPacketParse(b *testing.B) {
	wire := benchWire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketParseKey(b *testing.B) {
	wire := benchWire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.ParseKey(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenFlowEncodePacketIn(b *testing.B) {
	pi := &openflow.PacketIn{BufferID: 7, TotalLen: 1000, InPort: 1, Data: make([]byte, 128)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openflow.Encode(pi, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenFlowDecodeFlowMod(b *testing.B) {
	fm := openflow.MustEncode(&openflow.FlowMod{
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := openflow.Decode(fm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookupHit(b *testing.B) {
	tbl, err := flowtable.New(flowtable.Unlimited, flowtable.EvictNone)
	if err != nil {
		b.Fatal(err)
	}
	wire := benchWire(b)
	f, err := packet.ParseHeaders(wire)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tbl.Insert(0, &flowtable.Entry{
		Match:    openflow.ExactMatch(1, f),
		Priority: 100,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(time.Duration(i), 1, f, len(wire)) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMechanismPacketGranularityCycle(b *testing.B) {
	m, err := core.NewPacketGranularity(256, 128, 0)
	if err != nil {
		b.Fatal(err)
	}
	wire := benchWire(b)
	key, err := packet.ParseKey(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i)
		res := m.HandleMiss(now, 1, wire, key)
		if !res.Buffered {
			b.Fatal("fallback")
		}
		if _, err := m.Release(now, res.PacketIn.BufferID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMechanismFlowGranularityBurst(b *testing.B) {
	m, err := core.NewFlowGranularity(256, 128, time.Second, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	wire := benchWire(b)
	key, err := packet.ParseKey(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i)
		first := m.HandleMiss(now, 1, wire, key)
		for j := 0; j < 9; j++ {
			m.HandleMiss(now, 1, wire, key)
		}
		if _, err := m.Release(now, first.PacketIn.BufferID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := pktgen.Config{
		FrameSize: 1000, RateMbps: 70, Jitter: 0.5,
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:  netip.MustParseAddr("10.0.0.2"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pktgen.InterleavedBursts(cfg, 50, 20, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// runLoadWith runs the §IV workload at 50 Mbps on cfg and reports the
// uplink control load.
func runLoadWith(b *testing.B, cfg testbed.Config) float64 {
	b.Helper()
	tb, err := testbed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := pktgen.SinglePacketFlows(basePktgen(50, netip.MustParseAddr("10.0.0.2")), 300)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		b.Fatal(err)
	}
	return res.CtrlLoadToControllerMbps
}

// runDownLoadWith runs the §V workload at 50 Mbps on cfg and reports the
// downlink control load.
func runDownLoadWith(b *testing.B, cfg testbed.Config) float64 {
	b.Helper()
	tb, err := testbed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := pktgen.InterleavedBursts(basePktgen(50, netip.MustParseAddr("10.0.0.2")), 20, 10, 5)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tb.Run(sched)
	if err != nil {
		b.Fatal(err)
	}
	return res.CtrlLoadToSwitchMbps
}

// BenchmarkAblationRerequestTimeout sweeps Algorithm 1's re-request timer
// under 10% control-message loss: too long stalls recovery (higher flow
// setup delay), while the re-request mechanism keeps delivery complete at
// every setting.
func BenchmarkAblationRerequestTimeout(b *testing.B) {
	for _, d := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			var setup float64
			var delivered float64
			for i := 0; i < b.N; i++ {
				rep, err := Run(Platform{
					Mode:             ModeFlowGranularity,
					BufferUnits:      256,
					RerequestTimeout: d,
					ControlLossRate:  0.10,
				}, BurstFlows(50, 20, 10, 5))
				if err != nil {
					b.Fatal(err)
				}
				setup = rep.FlowSetupDelay.Mean() * 1000
				delivered = float64(rep.FramesDelivered) / float64(rep.FramesSent)
			}
			b.ReportMetric(setup, "setup_ms")
			b.ReportMetric(delivered*100, "%delivered")
		})
	}
}

// BenchmarkLineTopology measures request amplification across 1-3 hops.
func BenchmarkLineTopology(b *testing.B) {
	for _, hops := range []int{1, 2, 3} {
		name := map[int]string{1: "hops1", 2: "hops2", 3: "hops3"}[hops]
		b.Run(name, func(b *testing.B) {
			var pktIns, setup float64
			for i := 0; i < b.N; i++ {
				rep, err := RunLine(Platform{Mode: ModePacketGranularity, BufferUnits: 256},
					hops, SinglePacketFlows(40, 200))
				if err != nil {
					b.Fatal(err)
				}
				pktIns = float64(rep.PacketIns)
				setup = rep.FlowSetupDelay.Mean() * 1000
			}
			b.ReportMetric(pktIns, "pkt_ins")
			b.ReportMetric(setup, "setup_ms")
		})
	}
}
