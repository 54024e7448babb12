package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"sdnbuffer/internal/metrics"
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
// it. The zero value is filled with the full-grid defaults, whose CSV
// digest CI pins.
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
	// Rate is the sending rate in Mbps (default 40); Flows × PktsPerFlow
	// shape the workload (defaults 8 × 30, long enough to straddle the
	// window).
	Rate        float64
	Flows       int
	PktsPerFlow int
	// WindowMs is the failure window length in milliseconds (default 20).
	WindowMs int
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
	if o.Rate == 0 {
		o.Rate = 40
	}
	if o.Flows == 0 {
		o.Flows = 8
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 30
	}
	if o.WindowMs == 0 {
		o.WindowMs = 20
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

// survivabilityCell is the raw metric set of one (topo, scenario, mechanism,
// install, shards, seed) run.
type survivabilityCell struct {
	switches        int
	delivered, sent int64
	convergeMs      float64
	rerouted        uint64
	blackholes      uint64
	loopFrames      int64
	linkDownDrops   int64
	txDownDrops     uint64
	bufDropsDead    uint64
	crashRxDrops    uint64
	crashBufPackets uint64
	ledgerGap       int64
	unroutable      uint64
	dups            int64
	misdelivered    int64
	lateReorders    int64
	leakedUnits     int
	leakedBytes     int64
}

// SurvivabilityPoint aggregates one grid cell across repeats.
type SurvivabilityPoint struct {
	Topo     string
	Scenario string
	Series   string
	Install  topo.InstallMode
	Shards   int
	Switches int
	// Delivery and ConvergeMs observe one per-repeat sample each.
	Delivery   metrics.Summary
	ConvergeMs metrics.Summary
	// Rerouted and the named drop reasons are summed across repeats.
	Rerouted        uint64
	LinkDownDrops   int64
	TxDownDrops     uint64
	BufDropsDead    uint64
	CrashRxDrops    uint64
	CrashBufPackets uint64
	// Blackholes, LoopFrames, LedgerGap, Unroutable, Dups, Misdelivered,
	// LateReorders and the leak counters are worst-of across repeats —
	// acceptance demands zero for all: no frame circulates, every loss has
	// a name, and delivery settles back to exactly once in order.
	Blackholes   uint64
	LoopFrames   int64
	LedgerGap    int64
	Unroutable   uint64
	Dups         int64
	Misdelivered int64
	LateReorders int64
	LeakedUnits  int
	LeakedBytes  int64
}

// SurvivabilitySweepResult is a completed survivability sweep.
type SurvivabilitySweepResult struct {
	Options SurvivabilityOptions
	Points  []SurvivabilityPoint
}

func runSurvivabilityCell(j survivabilityJob, opts SurvivabilityOptions) (survivabilityCell, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return survivabilityCell{}, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return survivabilityCell{}, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, opts.Rate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return survivabilityCell{}, err
	}
	start := sched.Duration() / 3
	window := netem.Window{Start: start, End: start + time.Duration(opts.WindowMs)*time.Millisecond}
	plan, err := survivabilityPlan(g, j.scenario, window)
	if err != nil {
		return survivabilityCell{}, err
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
		return survivabilityCell{}, err
	}
	res, err := fb.Run(sched)
	if err != nil {
		return survivabilityCell{}, err
	}
	named := res.LinkDownDrops + int64(res.TxDownDrops) + int64(res.BufDropsDeadPort) +
		int64(res.CrashRxDrops) + int64(res.CrashBufPackets)
	// Reordering while old-path and new-path frames race is physical and
	// transient; only violations delivered after the settle deadline (the
	// window's end plus one re-request period and control slack) count.
	var lateReorders int64
	if settle := window.End + 60*time.Millisecond; res.LastReorderTime > settle {
		lateReorders = res.OrderViolations
	}
	return survivabilityCell{
		switches:        res.Switches,
		delivered:       res.FramesDelivered,
		sent:            int64(res.FramesSent),
		convergeMs:      float64(res.ConvergenceTime) / float64(time.Millisecond),
		rerouted:        res.ReroutedPaths,
		blackholes:      res.Blackholes,
		loopFrames:      res.LoopFrames,
		linkDownDrops:   res.LinkDownDrops,
		txDownDrops:     res.TxDownDrops,
		bufDropsDead:    res.BufDropsDeadPort,
		crashRxDrops:    res.CrashRxDrops,
		crashBufPackets: res.CrashBufPackets,
		ledgerGap:       int64(res.FramesSent) - res.FramesDelivered - named,
		unroutable:      res.Unroutable,
		dups:            res.DupEmissions,
		misdelivered:    res.Misdelivered,
		lateReorders:    lateReorders,
		leakedUnits:     res.BufferUnitsLeaked,
		leakedBytes:     res.BufferBytesLeaked,
	}, nil
}

// survivabilityJob is one scheduled run of the sweep.
type survivabilityJob struct {
	spec     string
	scenario string
	series   Series
	install  topo.InstallMode
	shards   int
	seed     int64
}

// RunSurvivability executes the survivability sweep, fanning the (topo,
// scenario, mechanism, install, shards, repeat) grid across Parallelism
// workers and folding the per-cell metrics in a fixed order: the result
// (and hence the CSV) is byte-identical at any Parallelism.
func RunSurvivability(opts SurvivabilityOptions) (*SurvivabilitySweepResult, error) {
	opts = opts.withDefaults()
	var jobs []survivabilityJob
	for _, spec := range opts.Topos {
		for _, scenario := range opts.Scenarios {
			for _, series := range opts.Mechanisms {
				for _, install := range opts.Installs {
					for _, shards := range opts.Shards {
						for rep := 0; rep < opts.Repeats; rep++ {
							jobs = append(jobs, survivabilityJob{
								spec: spec, scenario: scenario, series: series,
								install: install, shards: shards, seed: int64(rep) + 1,
							})
						}
					}
				}
			}
		}
	}
	vals, err := runCells(jobs, opts.Parallelism, func(j survivabilityJob) (survivabilityCell, error) {
		v, err := runSurvivabilityCell(j, opts)
		if err != nil {
			return v, fmt.Errorf("experiments: survivability %s/%s/%s/%s/%d shards seed %d: %w",
				j.spec, j.scenario, j.series.Name, j.install, j.shards, j.seed, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	out := &SurvivabilitySweepResult{Options: opts}
	fold := func(p *SurvivabilityPoint, v survivabilityCell) {
		p.Switches = v.switches
		if v.sent > 0 {
			p.Delivery.Observe(float64(v.delivered) / float64(v.sent))
		}
		p.ConvergeMs.Observe(v.convergeMs)
		p.Rerouted += v.rerouted
		p.LinkDownDrops += v.linkDownDrops
		p.TxDownDrops += v.txDownDrops
		p.BufDropsDead += v.bufDropsDead
		p.CrashRxDrops += v.crashRxDrops
		p.CrashBufPackets += v.crashBufPackets
		if v.blackholes > p.Blackholes {
			p.Blackholes = v.blackholes
		}
		if v.loopFrames > p.LoopFrames {
			p.LoopFrames = v.loopFrames
		}
		if gap := v.ledgerGap; gap < 0 {
			gap = -gap
			if gap > p.LedgerGap {
				p.LedgerGap = gap
			}
		} else if gap > p.LedgerGap {
			p.LedgerGap = gap
		}
		if v.unroutable > p.Unroutable {
			p.Unroutable = v.unroutable
		}
		if v.dups > p.Dups {
			p.Dups = v.dups
		}
		if v.misdelivered > p.Misdelivered {
			p.Misdelivered = v.misdelivered
		}
		if v.lateReorders > p.LateReorders {
			p.LateReorders = v.lateReorders
		}
		if v.leakedUnits > p.LeakedUnits {
			p.LeakedUnits = v.leakedUnits
		}
		if v.leakedBytes > p.LeakedBytes {
			p.LeakedBytes = v.leakedBytes
		}
	}
	i := 0
	for _, spec := range opts.Topos {
		for _, scenario := range opts.Scenarios {
			for _, series := range opts.Mechanisms {
				for _, install := range opts.Installs {
					for _, shards := range opts.Shards {
						p := SurvivabilityPoint{Topo: spec, Scenario: scenario,
							Series: series.Name, Install: install, Shards: shards}
						for rep := 0; rep < opts.Repeats; rep++ {
							fold(&p, vals[i])
							i++
						}
						out.Points = append(out.Points, p)
					}
				}
			}
		}
	}
	return out, nil
}

// WriteTable renders the sweep as a fixed-width text table, one row per
// (topo, scenario, mechanism, install, shards).
func (r *SurvivabilitySweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "survivability — %d flows × %d pkts at %g Mbps, %d ms window, %d repeats\n",
		r.Options.Flows, r.Options.PktsPerFlow, r.Options.Rate, r.Options.WindowMs, r.Options.Repeats); err != nil {
		return err
	}
	header := fmt.Sprintf("%-30s %-6s %-18s %-4s %6s %9s %11s %8s %9s %9s %8s %6s %5s",
		"topo", "fail", "mechanism", "inst", "shards", "delivery", "converge_ms", "rerouted", "linkdrops", "bufdrops", "crashrx", "loops", "gap")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%-30s %-6s %-18s %-4s %6d %9.4f %11.3f %8d %9d %9d %8d %6d %5d\n",
			p.Topo, p.Scenario, p.Series, p.Install, p.Shards,
			p.Delivery.Mean(), p.ConvergeMs.Mean(), p.Rerouted,
			p.LinkDownDrops, p.BufDropsDead, p.CrashRxDrops,
			p.LoopFrames, p.LedgerGap); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the sweep as CSV rows:
// topo,scenario,switches,mechanism,install,shards,delivery_mean,converge_ms_mean,converge_ms_max,rerouted,blackholes,loop_frames,link_down_drops,tx_down_drops,buf_drops_dead_port,crash_rx_drops,crash_buf_packets,ledger_gap,unroutable,dups,misdelivered,late_reorders,leaked_units,leaked_bytes.
// The topo column is quoted when the spec itself contains commas.
func (r *SurvivabilitySweepResult) WriteCSV(w io.Writer, includeHeader bool) error {
	if includeHeader {
		if _, err := fmt.Fprintln(w, "topo,scenario,switches,mechanism,install,shards,delivery_mean,converge_ms_mean,converge_ms_max,rerouted,blackholes,loop_frames,link_down_drops,tx_down_drops,buf_drops_dead_port,crash_rx_drops,crash_buf_packets,ledger_gap,unroutable,dups,misdelivered,late_reorders,leaked_units,leaked_bytes"); err != nil {
			return err
		}
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s,%d,%g,%g,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			csvQuote(p.Topo), p.Scenario, p.Switches, p.Series, p.Install, p.Shards,
			p.Delivery.Mean(), p.ConvergeMs.Mean(), p.ConvergeMs.Max(),
			p.Rerouted, p.Blackholes, p.LoopFrames,
			p.LinkDownDrops, p.TxDownDrops, p.BufDropsDead, p.CrashRxDrops, p.CrashBufPackets,
			p.LedgerGap, p.Unroutable, p.Dups, p.Misdelivered, p.LateReorders,
			p.LeakedUnits, p.LeakedBytes); err != nil {
			return err
		}
	}
	return nil
}
