package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strconv"

	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// FabricOptions scale the fabric sweep: topology × buffer mechanism ×
// install mode × shard count, each cell repeated across seeds, plus one
// at-scale run (≥1000 switches) appended as its own row. The zero value is
// filled with the full-grid defaults; benchrunner's
// TestScenarioCSVDeterminism pins this grid's CSV digest at the CLI's
// -repeats 5.
type FabricOptions struct {
	// Topos are the topology specs swept (topo.ParseSpec syntax; defaults
	// cover a 2- and 4-hop line, a leaf-spine and a three-tier fat-tree).
	Topos []string
	// Mechanisms are the buffer series swept (default no-buffer,
	// packet-granularity, flow-granularity).
	Mechanisms []Series
	// Installs are the rule-installation modes swept (default hop, path).
	Installs []topo.InstallMode
	// Shards are the controller counts swept (default 1, 2).
	Shards []int
	// Flows × PktsPerFlow shape the workload (defaults 40 × 4), sent at
	// fabricRate.
	Flows       int
	PktsPerFlow int
	// Repeats is the number of seeds per cell (default 2).
	Repeats int
	// NoScale skips the at-scale row (fabricScale) appended after the grid
	// (quick mode).
	NoScale bool
	// Parallelism fans the grid across workers (default GOMAXPROCS).
	// Results fold in a fixed order, so output is byte-identical at any
	// setting.
	Parallelism int
}

func (o FabricOptions) withDefaults() FabricOptions {
	if len(o.Topos) == 0 {
		o.Topos = []string{
			"line:2",
			"line:4",
			"leafspine:leaves=4,spines=2",
			"fattree:pods=2,leaves=2,spines=2,cores=2",
		}
	}
	if len(o.Mechanisms) == 0 {
		o.Mechanisms = []Series{SeriesNoBuffer, SeriesPacketGranularity, SeriesFlowGranularity}
	}
	if len(o.Installs) == 0 {
		o.Installs = []topo.InstallMode{topo.InstallHopByHop, topo.InstallPath}
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2}
	}
	if o.Flows == 0 {
		o.Flows = 40
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 4
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// fabricRate is the sending rate in Mbps of the fabric, survivability and
// table-management sweeps.
const fabricRate float64 = 40

// The at-scale row appended after the fabric grid: a 1024-switch leaf-spine
// run once under flow granularity with path install and fabricScaleShards
// controllers.
const (
	fabricScale       = "leafspine:leaves=1016,spines=8,hosts=16"
	fabricScaleShards = 4
)

// fabricJob is one scheduled run of the sweep: a grid cell repeat, or the
// appended scale row.
type fabricJob struct {
	spec    string
	series  Series
	install topo.InstallMode
	shards  int
	seed    int64
}

type fabricRun = *testbed.FabricResult

func runFabricCell(j fabricJob, opts FabricOptions) (fabricRun, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return nil, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return nil, err
	}
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	fb, err := testbed.NewFabric(cfg, testbed.FabricOptions{
		Graph:   g,
		Shards:  j.shards,
		Install: j.install,
	})
	if err != nil {
		return nil, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, fabricRate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return nil, err
	}
	return fb.Run(sched)
}

// delivery is one run's delivered/sent ratio, or NaN (no sample) when the
// run sent nothing.
func delivery(r *testbed.Result) float64 {
	if r.FramesSent == 0 {
		return math.NaN()
	}
	return float64(r.FramesDelivered) / float64(r.FramesSent)
}

// RunFabric executes the fabric sweep, one row per (topo, mechanism,
// install, shards) plus the at-scale row, each folded over its repeats. The
// CSV columns are topo, switches and hops, the keys, delivery and setup
// delay, the controller-load counters (summed; ctrl_mbps averaged) and the
// invariant counters, worst-of, that acceptance demands be zero. Output is
// byte-identical at any Parallelism.
func RunFabric(opts FabricOptions) (*Table, error) {
	opts = opts.withDefaults()
	var groups [][]fabricJob
	for _, spec := range opts.Topos {
		for _, series := range opts.Mechanisms {
			for _, install := range opts.Installs {
				for _, shards := range opts.Shards {
					groups = append(groups, repeatGroup(opts.Repeats, func(seed int64) fabricJob {
						return fabricJob{spec: spec, series: series, install: install, shards: shards, seed: seed}
					}))
				}
			}
		}
	}
	if !opts.NoScale {
		groups = append(groups, []fabricJob{{spec: fabricScale, series: SeriesFlowGranularity,
			install: topo.InstallPath, shards: fabricScaleShards, seed: 1}})
	}
	return sweep[fabricJob, fabricRun]{
		name: "fabric",
		title: fmt.Sprintf("fabric — %d flows × %d pkts at %g Mbps, %d repeats",
			opts.Flows, opts.PktsPerFlow, fabricRate, opts.Repeats),
		groups: groups,
		cell:   func(j fabricJob) (fabricRun, error) { return runFabricCell(j, opts) },
		cols: []column[fabricJob, fabricRun]{
			{name: "topo", key: func(j fabricJob) string { return j.spec }},
			{name: "switches", fold: foldLast, sample: func(r fabricRun) float64 { return float64(r.Switches) }},
			{name: "hops", fold: foldLast, sample: func(r fabricRun) float64 { return float64(r.PathHops) }},
			{name: "mechanism", key: func(j fabricJob) string { return j.series.Name }},
			{name: "install", key: func(j fabricJob) string { return j.install.String() }},
			{name: "shards", key: func(j fabricJob) string { return strconv.Itoa(j.shards) }},
			{name: "delivery_mean", fold: foldMean, sample: func(r fabricRun) float64 { return delivery(&r.Result) }},
			{name: "setup_ms_mean", fold: foldMean, sample: func(r fabricRun) float64 { return r.FlowSetupDelay.Mean() * 1e3 }},
			{name: "setup_ms_stddev", fold: foldStdDev, sample: func(r fabricRun) float64 { return r.FlowSetupDelay.Mean() * 1e3 }},
			{name: "packet_ins", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.PacketIns) }},
			{name: "flow_mods", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.FlowMods) }},
			{name: "path_installs", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.PathInstalls) }},
			{name: "remote_skips", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RemoteSkips) }},
			{name: "ctrl_mbps", fold: foldPerRepeat, sample: func(r fabricRun) float64 { return r.CtrlLoadToControllerMbps }},
			{name: "unroutable", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.Unroutable) }},
			{name: "dups", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.DupEmissions) }},
			{name: "misorders", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.OrderViolations) }},
			{name: "misdelivered", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.Misdelivered) }},
			{name: "leaked_units", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.BufferUnitsLeaked) }},
			{name: "leaked_bytes", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.BufferBytesLeaked) }},
		},
	}.run(opts.Parallelism)
}
