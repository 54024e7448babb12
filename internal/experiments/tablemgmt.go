package experiments

import (
	"fmt"
	"runtime"
	"strconv"

	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/tablemgmt"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// TableMgmtOptions scale the table×buffer coupled sweep (DESIGN.md §17):
// flow-table capacity × eviction policy × wildcard aggregation × buffer
// mechanism, each cell repeated across seeds. The workload is many short
// flows converging on one destination, sized so the small capacities
// saturate: the sweep shows how a full table amplifies misses — and hence
// buffer pressure and controller load — and how much eviction choice and
// destination-prefix aggregation claw back. The zero value is filled with
// the full-grid defaults; benchrunner's TestScenarioCSVDeterminism pins
// this grid's CSV digest at the CLI's -repeats 5.
type TableMgmtOptions struct {
	// Topos are the topology specs swept (topo.ParseSpec syntax).
	Topos []string
	// Capacities are the per-switch flow-table capacities swept.
	Capacities []int
	// Policies are the table-full policies swept (default reject, lru,
	// expiry).
	Policies []flowtable.EvictionPolicy
	// Aggregation sweeps the wildcard aggregation layer off/on (default
	// both).
	Aggregation []bool
	// Mechanisms are the buffer series swept (default no-buffer,
	// packet-granularity).
	Mechanisms []Series
	// Flows × PktsPerFlow shape the workload (defaults 24 × 6 — enough
	// distinct rules to bury the small capacities), sent at fabricRate in
	// tableMgmtFrameSize-byte frames.
	Flows       int
	PktsPerFlow int
	// Repeats is the number of seeds per cell (default 2).
	Repeats int
	// Parallelism fans the grid across workers (default GOMAXPROCS).
	// Results fold in a fixed order, so output is byte-identical at any
	// setting.
	Parallelism int
}

func (o TableMgmtOptions) withDefaults() TableMgmtOptions {
	if len(o.Topos) == 0 {
		o.Topos = []string{"line:switches=3"}
	}
	if len(o.Capacities) == 0 {
		o.Capacities = []int{8, 48}
	}
	if len(o.Policies) == 0 {
		o.Policies = []flowtable.EvictionPolicy{
			flowtable.EvictNone, flowtable.EvictLRU, flowtable.EvictSoonestExpiry,
		}
	}
	if len(o.Aggregation) == 0 {
		o.Aggregation = []bool{false, true}
	}
	if len(o.Mechanisms) == 0 {
		o.Mechanisms = []Series{SeriesNoBuffer, SeriesPacketGranularity}
	}
	if o.Flows == 0 {
		o.Flows = 24
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 6
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// tableMgmtFrameSize is the table-management sweep's frame size, in place of
// the other scenarios' frameSize.
const tableMgmtFrameSize = 600

// tableMgmtIdleTimeout is the installed rules' idle timeout in seconds: it
// fires during the drain, exercising idle expiry.
const tableMgmtIdleTimeout = 1

// tableMgmtJob is one scheduled run of the sweep.
type tableMgmtJob struct {
	spec     string
	capacity int
	policy   flowtable.EvictionPolicy
	agg      bool
	series   Series
	seed     int64
}

func runTableMgmtCell(j tableMgmtJob, opts TableMgmtOptions) (fabricRun, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return nil, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return nil, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(tableMgmtFrameSize, fabricRate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return nil, err
	}
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	cfg.Forwarder.IdleTimeout = tableMgmtIdleTimeout
	cfg.Forwarder.RequestFlowRemoved = true
	cfg.Switch.Datapath.TableCapacity = j.capacity
	cfg.Switch.Datapath.EvictionPolicy = j.policy
	fopts := testbed.FabricOptions{Graph: g, Install: topo.InstallHopByHop}
	if j.agg {
		fopts.TableMgmt = &tablemgmt.Config{
			TableCapacity:      j.capacity,
			RequestFlowRemoved: true,
		}
	}
	fb, err := testbed.NewFabric(cfg, fopts)
	if err != nil {
		return nil, err
	}
	return fb.Run(sched)
}

// RunTableMgmt executes the table-management sweep, one row per (topo,
// capacity, policy, aggregation, mechanism) folded over its repeats. The
// rule ledger and aggregation counters are summed; occupancy_mean averages
// the per-repeat buffer occupancy means and occupancy_max is the worst
// repeat. ledger_gap and leaked_units are worst-of, and acceptance demands
// zero for both: every installed rule is accounted for and no buffer unit
// leaks. Output is byte-identical at any Parallelism.
func RunTableMgmt(opts TableMgmtOptions) (*Table, error) {
	opts = opts.withDefaults()
	var groups [][]tableMgmtJob
	for _, spec := range opts.Topos {
		for _, capa := range opts.Capacities {
			for _, policy := range opts.Policies {
				for _, agg := range opts.Aggregation {
					for _, series := range opts.Mechanisms {
						groups = append(groups, repeatGroup(opts.Repeats, func(seed int64) tableMgmtJob {
							return tableMgmtJob{spec: spec, capacity: capa, policy: policy,
								agg: agg, series: series, seed: seed}
						}))
					}
				}
			}
		}
	}
	return sweep[tableMgmtJob, fabricRun]{
		name: "tablemgmt",
		title: fmt.Sprintf("tablemgmt — %d flows × %d pkts at %g Mbps, idle %ds, %d repeats",
			opts.Flows, opts.PktsPerFlow, fabricRate, tableMgmtIdleTimeout, opts.Repeats),
		groups: groups,
		cell:   func(j tableMgmtJob) (fabricRun, error) { return runTableMgmtCell(j, opts) },
		cols: []column[tableMgmtJob, fabricRun]{
			{name: "topo", key: func(j tableMgmtJob) string { return j.spec }},
			{name: "capacity", key: func(j tableMgmtJob) string { return strconv.Itoa(j.capacity) }},
			{name: "policy", key: func(j tableMgmtJob) string { return j.policy.String() }},
			{name: "aggregation", key: func(j tableMgmtJob) string { return strconv.FormatBool(j.agg) }},
			{name: "mechanism", key: func(j tableMgmtJob) string { return j.series.Name }},
			{name: "switches", fold: foldLast, sample: func(r fabricRun) float64 { return float64(r.Switches) }},
			{name: "delivery_mean", fold: foldMean, sample: func(r fabricRun) float64 { return delivery(&r.Result) }},
			{name: "setup_ms_mean", fold: foldMean, sample: func(r fabricRun) float64 { return r.FlowSetupDelay.Mean() * 1e3 }},
			{name: "packet_ins", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.PacketIns) }},
			{name: "installs", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RuleInstalls) }},
			{name: "replacements", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RuleReplacements) }},
			{name: "active", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RulesActive) }},
			{name: "removed_idle", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RemovedIdle) }},
			{name: "removed_hard", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RemovedHard) }},
			{name: "removed_delete", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RemovedDelete) }},
			{name: "removed_evict", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RemovedEvict) }},
			{name: "rejects", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RuleRejects) }},
			{name: "cleared", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RulesCleared) }},
			{name: "ledger_gap", fold: foldWorstAbs, sample: func(r fabricRun) float64 { return float64(r.LedgerGap) }},
			{name: "aggregations", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.Aggregations) }},
			{name: "rules_compressed", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.RulesCompressed) }},
			{name: "covered_skips", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.CoveredSkips) }},
			{name: "table_full_errors", fold: foldSum, sample: func(r fabricRun) float64 { return float64(r.TableFullErrors) }},
			{name: "occupancy_mean", fold: foldMean, sample: func(r fabricRun) float64 { return r.BufferOccupancyMean }},
			{name: "occupancy_max", fold: foldWorst, real: true, sample: func(r fabricRun) float64 { return r.BufferOccupancyMax }},
			{name: "leaked_units", fold: foldWorst, sample: func(r fabricRun) float64 { return float64(r.BufferUnitsLeaked) }},
		},
	}.run(opts.Parallelism)
}
