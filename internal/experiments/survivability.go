package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// Survivability scenario names: which element of the active path the sweep
// kills mid-run. "link" takes down the path's first inter-switch link for
// the window; "crash" power-cycles the mid-path switch (the spine on a
// leaf-spine), wiping its flow table and buffers.
const (
	ScenarioLinkDown    = "link"
	ScenarioSwitchCrash = "crash"
)

// SurvivabilityOptions scale the survivability sweep: topology × failure
// scenario × buffer mechanism × install mode × shard count, each cell
// repeated across seeds. Topologies must offer a detour around the killed
// element (the defaults are leaf-spines with a spare spine); the failure
// window sits a third of the way into the schedule so traffic straddles
// it. The zero value is filled with the full-grid defaults; benchrunner's
// TestScenarioCSVDeterminism pins this grid's CSV digest at the CLI's
// -repeats 5.
type SurvivabilityOptions struct {
	// Topos are the topology specs swept (topo.ParseSpec syntax).
	Topos []string
	// Scenarios are the failure scenarios swept (default link, crash).
	Scenarios []string
	// Mechanisms are the buffer series swept (default no-buffer,
	// packet-granularity, flow-granularity).
	Mechanisms []Series
	// Installs are the rule-installation modes swept (default hop, path).
	Installs []topo.InstallMode
	// Shards are the controller counts swept (default 1, 2).
	Shards []int
	// Flows × PktsPerFlow shape the workload (defaults 8 × 30, long
	// enough to straddle the window), sent at fabricRate.
	Flows       int
	PktsPerFlow int
	// Repeats is the number of seeds per cell (default 2).
	Repeats int
	// Parallelism fans the grid across workers (default GOMAXPROCS).
	// Results fold in a fixed order, so output is byte-identical at any
	// setting.
	Parallelism int
}

func (o SurvivabilityOptions) withDefaults() SurvivabilityOptions {
	if len(o.Topos) == 0 {
		o.Topos = []string{
			"leafspine:leaves=2,spines=2",
			"leafspine:leaves=4,spines=3",
		}
	}
	if len(o.Scenarios) == 0 {
		o.Scenarios = []string{ScenarioLinkDown, ScenarioSwitchCrash}
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
		o.Flows = 8
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 30
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// survivabilityPlan derives the cell's failure plan from the topology's
// active host 0 → host 1 path, so the failure always bites the workload.
func survivabilityPlan(g *topo.Graph, scenario string, w netem.Window) (*netem.FailurePlan, error) {
	path, err := g.HostPath(0, 1)
	if err != nil {
		return nil, err
	}
	switch scenario {
	case ScenarioLinkDown:
		if len(path) < 2 {
			return nil, fmt.Errorf("experiments: %q needs a multi-switch path, got %d hops", scenario, len(path))
		}
		return &netem.FailurePlan{Links: []netem.LinkFailure{
			{A: path[0].Switch, B: path[1].Switch, Window: w},
		}}, nil
	case ScenarioSwitchCrash:
		if len(path) < 3 {
			return nil, fmt.Errorf("experiments: %q needs a mid-path switch, got %d hops", scenario, len(path))
		}
		return &netem.FailurePlan{Switches: []netem.SwitchFailure{
			{Switch: path[1].Switch, Window: w},
		}}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown survivability scenario %q (want %s or %s)",
			scenario, ScenarioLinkDown, ScenarioSwitchCrash)
	}
}

// survivabilityWindow is the failure window's length.
const survivabilityWindow = 20 * time.Millisecond

// survivabilityJob is one scheduled run of the sweep.
type survivabilityJob struct {
	spec     string
	scenario string
	series   Series
	install  topo.InstallMode
	shards   int
	seed     int64
}

// survRun is one run's result and its settle deadline: the window's end
// plus one re-request period and control slack. Reordering while old-path
// and new-path frames race is physical and transient; only violations
// delivered after the deadline count as late.
type survRun struct {
	*testbed.FabricResult
	settle time.Duration
}

func runSurvivabilityCell(j survivabilityJob, opts SurvivabilityOptions) (survRun, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return survRun{}, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return survRun{}, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, fabricRate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return survRun{}, err
	}
	start := sched.Duration() / 3
	window := netem.Window{Start: start, End: start + survivabilityWindow}
	plan, err := survivabilityPlan(g, j.scenario, window)
	if err != nil {
		return survRun{}, err
	}
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	fb, err := testbed.NewFabric(cfg, testbed.FabricOptions{
		Graph:    g,
		Shards:   j.shards,
		Install:  j.install,
		Failures: plan,
	})
	if err != nil {
		return survRun{}, err
	}
	res, err := fb.Run(sched)
	if err != nil {
		return survRun{}, err
	}
	return survRun{res, window.End + 60*time.Millisecond}, nil
}

// RunSurvivability executes the survivability sweep, one row per (topo,
// scenario, mechanism, install, shards) folded over its repeats. Rerouted
// paths and the named drop reasons are summed. Blackholes, loop frames, the
// drop-ledger gap (sent − delivered − named drops), unroutable misses,
// duplicates, misdeliveries, late reorders and leaks are worst-of: every
// loss must have a name, no frame may circulate, and delivery must settle
// back to exactly once in order. Output is byte-identical at any
// Parallelism.
func RunSurvivability(opts SurvivabilityOptions) (*Table, error) {
	opts = opts.withDefaults()
	var groups [][]survivabilityJob
	for _, spec := range opts.Topos {
		for _, scenario := range opts.Scenarios {
			for _, series := range opts.Mechanisms {
				for _, install := range opts.Installs {
					for _, shards := range opts.Shards {
						groups = append(groups, repeatGroup(opts.Repeats, func(seed int64) survivabilityJob {
							return survivabilityJob{spec: spec, scenario: scenario, series: series,
								install: install, shards: shards, seed: seed}
						}))
					}
				}
			}
		}
	}
	return sweep[survivabilityJob, survRun]{
		name: "survivability",
		title: fmt.Sprintf("survivability — %d flows × %d pkts at %g Mbps, %v window, %d repeats",
			opts.Flows, opts.PktsPerFlow, fabricRate, survivabilityWindow, opts.Repeats),
		groups: groups,
		cell:   func(j survivabilityJob) (survRun, error) { return runSurvivabilityCell(j, opts) },
		cols: []column[survivabilityJob, survRun]{
			{name: "topo", key: func(j survivabilityJob) string { return j.spec }},
			{name: "scenario", key: func(j survivabilityJob) string { return j.scenario }},
			{name: "switches", fold: foldLast, sample: func(r survRun) float64 { return float64(r.Switches) }},
			{name: "mechanism", key: func(j survivabilityJob) string { return j.series.Name }},
			{name: "install", key: func(j survivabilityJob) string { return j.install.String() }},
			{name: "shards", key: func(j survivabilityJob) string { return strconv.Itoa(j.shards) }},
			{name: "delivery_mean", fold: foldMean, sample: func(r survRun) float64 { return delivery(&r.Result) }},
			{name: "converge_ms_mean", fold: foldMean, sample: func(r survRun) float64 { return ms(r.ConvergenceTime) }},
			{name: "converge_ms_max", fold: foldMax, sample: func(r survRun) float64 { return ms(r.ConvergenceTime) }},
			{name: "rerouted", fold: foldSum, sample: func(r survRun) float64 { return float64(r.ReroutedPaths) }},
			{name: "blackholes", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.Blackholes) }},
			{name: "loop_frames", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.LoopFrames) }},
			{name: "link_down_drops", fold: foldSum, sample: func(r survRun) float64 { return float64(r.LinkDownDrops) }},
			{name: "tx_down_drops", fold: foldSum, sample: func(r survRun) float64 { return float64(r.TxDownDrops) }},
			{name: "buf_drops_dead_port", fold: foldSum, sample: func(r survRun) float64 { return float64(r.BufDropsDeadPort) }},
			{name: "crash_rx_drops", fold: foldSum, sample: func(r survRun) float64 { return float64(r.CrashRxDrops) }},
			{name: "crash_buf_packets", fold: foldSum, sample: func(r survRun) float64 { return float64(r.CrashBufPackets) }},
			{name: "ledger_gap", fold: foldWorstAbs, sample: func(r survRun) float64 {
				named := r.LinkDownDrops + int64(r.TxDownDrops) + int64(r.BufDropsDeadPort) +
					int64(r.CrashRxDrops) + int64(r.CrashBufPackets)
				return float64(int64(r.FramesSent) - r.FramesDelivered - named)
			}},
			{name: "unroutable", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.Unroutable) }},
			{name: "dups", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.DupEmissions) }},
			{name: "misdelivered", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.Misdelivered) }},
			{name: "late_reorders", fold: foldWorst, sample: func(r survRun) float64 {
				if r.LastReorderTime > r.settle {
					return float64(r.OrderViolations)
				}
				return 0
			}},
			{name: "leaked_units", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.BufferUnitsLeaked) }},
			{name: "leaked_bytes", fold: foldWorst, sample: func(r survRun) float64 { return float64(r.BufferBytesLeaked) }},
		},
	}.run(opts.Parallelism)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
