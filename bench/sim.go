package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"time"

	"sdnbuffer"
	"sdnbuffer/internal/capture"
	"sdnbuffer/internal/core"
	"sdnbuffer/internal/experiments"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/packet"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// simSpec is one simulation workload: a platform, a burst schedule and,
// for fabrics, a topology. End-to-end repeats hand it to the root facade;
// traced repeats assemble the same run from the layers (direct) to read
// their counters, and the two must produce the same digest.
type simSpec struct {
	mode          sdnbuffer.Mode
	tableCapacity int
	rateMbps      float64
	flows         int
	pktsPerFlow   int
	group         int
	fabric        string // topology spec; "" = the single-switch platform
	shards        int
	// quick* replace the sizes under runCtx.Quick.
	quickFlows, quickPkts, quickGroup, quickCapacity int
	quickFabric                                      string
}

func (s simSpec) sized(quick bool) simSpec {
	if quick {
		s.flows, s.pktsPerFlow, s.group = s.quickFlows, s.quickPkts, s.quickGroup
		s.tableCapacity = s.quickCapacity
		s.fabric = s.quickFabric
	}
	return s
}

func (s simSpec) platform(seed int64) sdnbuffer.Platform {
	return sdnbuffer.Platform{
		Mode:              s.mode,
		BufferUnits:       256,
		Seed:              seed,
		FlowTableCapacity: s.tableCapacity,
	}
}

func (s simSpec) workload() sdnbuffer.Workload {
	return sdnbuffer.BurstFlows(s.rateMbps, s.flows, s.pktsPerFlow, s.group)
}

// facade runs the workload the way a user does.
func (s simSpec) facade(seed int64) (*outcome, error) {
	var out *outcome
	if s.fabric == "" {
		rep, err := sdnbuffer.Run(s.platform(seed), s.workload())
		if err != nil {
			return nil, err
		}
		out = simOutcome(rep, "")
	} else {
		fr, err := sdnbuffer.RunFabric(s.platform(seed), s.fabric, s.shards, true, s.workload())
		if err != nil {
			return nil, err
		}
		out = fabricOutcome(fr)
	}
	return out, nil
}

// simOutcome applies the per-run correctness checks to a report and digests
// its deterministic fields.
func simOutcome(rep *sdnbuffer.Report, extra string) *outcome {
	out := &outcome{Ops: rep.FramesDelivered, Attempted: int64(rep.FramesSent)}
	if rep.FramesDelivered != int64(rep.FramesSent) {
		out.fail("delivered %d of %d frames", rep.FramesDelivered, rep.FramesSent)
	}
	if rep.DupEmissions != 0 || rep.OrderViolations != 0 || rep.BufferUnitsLeaked != 0 {
		out.fail("dups=%d order violations=%d leaked units=%d",
			rep.DupEmissions, rep.OrderViolations, rep.BufferUnitsLeaked)
	}
	h := sha256.New()
	fmt.Fprintf(h, "sent=%d delivered=%d flows=%d pktin=%d flowmod=%d pktout=%d rereq=%d fallback=%d\n",
		rep.FramesSent, rep.FramesDelivered, rep.FlowsObserved, rep.PacketIns, rep.FlowMods,
		rep.PacketOuts, rep.Rerequests, rep.BufferFallbacks)
	fmt.Fprintf(h, "elapsed=%d setup=%.17g ctrl=%.17g fwd=%.17g up=%.17g down=%.17g occ=%.17g/%.17g\n",
		rep.Elapsed, rep.FlowSetupDelay.Mean(), rep.ControllerDelay.Mean(), rep.FlowForwardingDelay.Mean(),
		rep.CtrlLoadToControllerMbps, rep.CtrlLoadToSwitchMbps, rep.BufferOccupancyMean, rep.BufferOccupancyMax)
	fmt.Fprint(h, extra)
	out.Digest = hexSum(h)
	return out
}

// fabricOutcome adds the fabric's own check and fields to simOutcome's.
func fabricOutcome(fr *sdnbuffer.FabricReport) *outcome {
	out := simOutcome(&fr.Result, fmt.Sprintf("switches=%d shards=%d hops=%d installs=%d rules=%d\n",
		fr.Switches, fr.Shards, fr.PathHops, fr.PathInstalls, fr.RuleInstalls))
	if fr.Misdelivered != 0 {
		out.fail("%d frames misdelivered", fr.Misdelivered)
	}
	return out
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// Direct assembly: what the facade does, spelled out against the layers so
// the traced run can keep the testbed and read its counters afterwards.

func (s simSpec) config(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig(openflow.FlowBufferConfig{
		Granularity:        s.mode,
		RerequestTimeoutMs: 50,
	}, 256)
	cfg.Seed = seed
	cfg.Switch.Datapath.TableCapacity = s.tableCapacity
	return cfg
}

// pktgenConfig mirrors the facade's frame parameters: 1000-byte UDP frames
// with half-gap jitter from pktgen seed 1.
func pktgenConfig(rateMbps float64, dst netip.Addr) pktgen.Config {
	return pktgen.Config{
		FrameSize: 1000,
		RateMbps:  rateMbps,
		Jitter:    0.5,
		Seed:      1,
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:     dst,
	}
}

var singleSwitchDst = netip.MustParseAddr("10.0.0.2")

func (s simSpec) direct(seed int64) (*outcome, error) {
	if s.fabric != "" {
		return s.directFabric(seed)
	}
	tb, err := testbed.New(s.config(seed))
	if err != nil {
		return nil, err
	}
	sched, err := pktgen.InterleavedBursts(pktgenConfig(s.rateMbps, singleSwitchDst), s.flows, s.pktsPerFlow, s.group)
	if err != nil {
		return nil, err
	}
	rep, err := tb.Run(sched)
	if err != nil {
		return nil, err
	}
	out := simOutcome(rep, "")
	out.Counts = map[string]float64{}
	addSwitchCounts(out.Counts, tb.Switch())
	addChannelCounts(out.Counts, tb.Capture())
	out.Counts["sim.events"] = float64(tb.Kernel().Executed())
	// Host1→switch and switch→Host2 carry every frame once; the control
	// cable carries every control message once.
	out.Counts["netem.sends"] = float64(rep.FramesSent) + float64(rep.FramesDelivered) + out.Counts["openflow.ctrl_msgs"]
	addReportCounts(out.Counts, rep)
	return out, nil
}

func (s simSpec) directFabric(seed int64) (*outcome, error) {
	ts, err := topo.ParseSpec(s.fabric)
	if err != nil {
		return nil, err
	}
	g, err := topo.Build(ts)
	if err != nil {
		return nil, err
	}
	fb, err := testbed.NewFabric(s.config(seed), testbed.FabricOptions{
		Graph:   g,
		Shards:  s.shards,
		Install: topo.InstallPath,
	})
	if err != nil {
		return nil, err
	}
	sched, err := pktgen.InterleavedBursts(pktgenConfig(s.rateMbps, g.Hosts()[1].Addr), s.flows, s.pktsPerFlow, s.group)
	if err != nil {
		return nil, err
	}
	fr, err := fb.Run(sched)
	if err != nil {
		return nil, err
	}
	out := fabricOutcome(fr)
	out.Counts = map[string]float64{}
	for _, sw := range fb.Switches() {
		addSwitchCounts(out.Counts, sw)
	}
	for _, ch := range fb.Capture() {
		addChannelCounts(out.Counts, ch)
	}
	out.Counts["sim.events"] = float64(fb.Kernel().Executed())
	// One host link in, one link out of each switch on the path.
	out.Counts["netem.sends"] = float64(fr.FramesSent)*float64(fr.PathHops+1) + out.Counts["openflow.ctrl_msgs"]
	addReportCounts(out.Counts, &fr.Result)
	return out, nil
}

func addSwitchCounts(c map[string]float64, sw *switchd.SimSwitch) {
	lookups, hits, _, evictions := sw.Datapath().Table().LookupStats()
	c["flowtable.lookups"] += float64(lookups)
	c["flowtable.hits"] += float64(hits)
	c["flowtable.evictions"] += float64(evictions)
	if pm, ok := sw.Datapath().Mechanism().(interface{ Pool() *core.Pool }); ok {
		stored, _, _, _ := pm.Pool().Counters()
		c["core.units_stored"] += float64(stored)
	}
}

func addChannelCounts(c map[string]float64, ch *capture.ControlChannel) {
	for _, sn := range []*capture.Sniffer{ch.ToController, ch.ToSwitch} {
		n, b := sn.Total()
		c["openflow.ctrl_msgs"] += float64(n)
		c["openflow.ctrl_bytes"] += float64(b)
	}
}

func addReportCounts(c map[string]float64, rep *testbed.Result) {
	c["frames"] += float64(rep.FramesSent)
	c["openflow.packet_ins"] += float64(rep.PacketIns)
	c["openflow.flow_mods"] += float64(rep.FlowMods)
	c["openflow.packet_outs"] += float64(rep.PacketOuts)
	c["core.fallbacks"] += float64(rep.BufferFallbacks)
	c["core.rerequests"] += float64(rep.Rerequests)
}

func simWorkload(name, why string, repSeconds float64, s simSpec) *workload {
	return &workload{
		Name:       name,
		Why:        why,
		RepSeconds: repSeconds,
		FullReps:   5,
		start: func(c runCtx) (func() (*outcome, error), func(*outcome), error) {
			spec := s.sized(c.Quick)
			if c.Counts {
				return func() (*outcome, error) { return spec.direct(c.Seed) }, nil, nil
			}
			return func() (*outcome, error) { return spec.facade(c.Seed) }, nil, nil
		},
	}
}

var hitStreamSim = simSpec{
	mode: sdnbuffer.ModeFlowGranularity, rateMbps: 100,
	flows: 512, pktsPerFlow: 1000, group: 4,
	quickFlows: 16, quickPkts: 50, quickGroup: 4,
}

var tableChurnSim = simSpec{
	mode: sdnbuffer.ModePacketGranularity, tableCapacity: 256, rateMbps: 50,
	flows: 2048, pktsPerFlow: 128, group: 1024,
	quickFlows: 64, quickPkts: 8, quickGroup: 32, quickCapacity: 16,
}

// Flows are not interleaved (group 1): with the issue's group of 4 the
// fabric's in-order oracle counts 52 violations on HEAD at this size, in every
// sharding and install mode, and a workload must not fail its own checks.
var fabric1kSim = simSpec{
	mode: sdnbuffer.ModeFlowGranularity, rateMbps: 80,
	flows: 10000, pktsPerFlow: 8, group: 1,
	fabric: "leafspine:leaves=1016,spines=8,hosts=16", shards: 4,
	quickFlows: 100, quickPkts: 4, quickGroup: 1,
	quickFabric: "leafspine:leaves=6,spines=2,hosts=2",
}

var hitStream = simWorkload("hit-stream",
	"512 flows x 1000 frames, flow-granularity: 512 misses, then table hits only; the fast path (pktgen, parse, kernel, links, lookup) with an idle control plane",
	3.2, hitStreamSim)

var tableChurn = simWorkload("table-churn",
	"2048 flows interleaved over a 256-rule LRU table, packet-granularity: every frame misses, inserts and evicts; the flow table's write side plus the full miss path",
	3.2, tableChurnSim)

var fabric1k = simWorkload("fabric-1k",
	"10000 flows x 8 frames across a 1024-switch leaf-spine, 4 controller shards, path install: topology build, PathForwarder and a kernel with many idle switches",
	2, fabric1kSim)

// The 16 figures at half the paper's rate grid (10..100 Mbps in steps of 10):
// 390 cells of 1000 frames, about 4.2 s a pass, so that three repeats fit a
// 12-second run. The issue's full grid (780 cells, 8.4 s) does not.
func figureOptions(quick bool) sdnbuffer.ExperimentOptions {
	o := sdnbuffer.ExperimentOptions{Repeats: 1, Parallelism: 1}
	if quick {
		o.Rates = []float64{50}
		o.FlowsA, o.FlowsB, o.PktsPerFlowB, o.GroupB = 40, 10, 4, 2
		return o
	}
	for r := 10.0; r <= 100; r += 10 {
		o.Rates = append(o.Rates, r)
	}
	return o
}

// framesPerCell is the same for the §IV (FlowsA single-packet flows) and §V
// (FlowsB x PktsPerFlowB) schedules at both sizes, by choice of the sizes.
func framesPerCell(o sdnbuffer.ExperimentOptions) int64 {
	if o.FlowsA == 0 {
		return 1000
	}
	return int64(o.FlowsA)
}

var paperFigs = &workload{
	Name:       "paper-figs",
	Why:        "all 16 figures through RunExperiment + WriteCSV, what users run: mostly misses, so codec, mechanisms, controller app, CPU/bus model and the sweep runner do the work",
	RepSeconds: 4,
	FullReps:   3,
	start: func(c runCtx) (func() (*outcome, error), func(*outcome), error) {
		var stop func(*outcome)
		if c.Counts {
			// Summing the layers' op counts takes a second pass over the
			// cells; it runs as teardown, outside every reported time.
			stop = func(o *outcome) {
				if err := figureLayerCounts(figureOptions(c.Quick), o.Counts); err != nil {
					o.fail("layer counts: %v", err)
				}
			}
		}
		return func() (*outcome, error) { return runFigures(c) }, stop, nil
	},
}

// runFigures regenerates every figure and hashes the CSVs. The seed is not
// an input here: a sweep cell's seed is the paper's repeat index.
func runFigures(c runCtx) (*outcome, error) {
	opts := figureOptions(c.Quick)
	out := &outcome{}
	var cells int64
	var cellStarts []time.Time
	if c.Counts {
		// The runner asks for one platform config per simulation it executes,
		// serially under Parallelism 1, which makes the hook both the exact
		// cell count and a per-cell clock.
		opts.Testbed = func(s experiments.Series) testbed.Config {
			cellStarts = append(cellStarts, time.Now())
			return testbed.DefaultConfig(s.Buffer, s.BufferCapacity)
		}
	}
	h := sha256.New()
	for _, id := range sdnbuffer.ExperimentIDs() {
		res, err := sdnbuffer.RunExperiment(id, opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "== %s\n", id)
		if err := res.WriteCSV(h, true); err != nil {
			return nil, err
		}
		cells += int64(len(res.Series) * len(opts.Rates) * opts.Repeats)
	}
	end := time.Now()
	out.Digest = hexSum(h)
	// RunExperiment fails a cell that loses a frame, so every cell delivered
	// its whole schedule.
	out.Ops = cells * framesPerCell(opts)
	out.Attempted = out.Ops
	if c.Counts {
		out.Counts = map[string]float64{"experiments.cells": float64(len(cellStarts))}
		gaps := make([]float64, 0, len(cellStarts))
		for i := range cellStarts {
			next := end
			if i+1 < len(cellStarts) {
				next = cellStarts[i+1]
			}
			gaps = append(gaps, next.Sub(cellStarts[i]).Seconds()*1e3)
		}
		out.Counts["experiments.cell_ms"] = median(gaps)
	}
	return out, nil
}

// figureLayerCounts replays every figure's cells against the layers to sum
// their op counts — the runner keeps its testbeds to itself.
func figureLayerCounts(opts sdnbuffer.ExperimentOptions, counts map[string]float64) error {
	for _, exp := range experiments.All() {
		for _, series := range exp.Series {
			for _, rate := range opts.Rates {
				for r := 0; r < opts.Repeats; r++ {
					seed := int64(r) + 1
					cfg := testbed.DefaultConfig(series.Buffer, series.BufferCapacity)
					cfg.Seed = seed
					tb, err := testbed.New(cfg)
					if err != nil {
						return err
					}
					pc := pktgenConfig(rate, singleSwitchDst)
					pc.Seed = seed
					var sched pktgen.Schedule
					if exp.Workload == experiments.WorkloadSinglePacketFlows {
						sched, err = pktgen.SinglePacketFlows(pc, int(framesPerCell(opts)))
					} else {
						flows, pkts, group := 50, 20, 5
						if opts.FlowsB != 0 {
							flows, pkts, group = opts.FlowsB, opts.PktsPerFlowB, opts.GroupB
						}
						sched, err = pktgen.InterleavedBursts(pc, flows, pkts, group)
					}
					if err != nil {
						return err
					}
					rep, err := tb.Run(sched)
					if err != nil {
						return err
					}
					addSwitchCounts(counts, tb.Switch())
					addChannelCounts(counts, tb.Capture())
					addReportCounts(counts, rep)
					counts["sim.events"] += float64(tb.Kernel().Executed())
				}
			}
		}
	}
	counts["netem.sends"] = 2*counts["frames"] + counts["openflow.ctrl_msgs"]
	return nil
}
