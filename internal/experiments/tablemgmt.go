package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"sdnbuffer/internal/flowtable"
	"sdnbuffer/internal/metrics"
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
// the full-grid defaults, whose CSV digest CI pins.
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
	// Rate is the sending rate in Mbps (default 40); Flows × PktsPerFlow
	// shape the workload (defaults 24 × 6 — enough distinct rules to bury
	// the small capacities). Frames are tableMgmtFrameSize bytes.
	Rate        float64
	Flows       int
	PktsPerFlow int
	// IdleTimeoutSec is the installed rules' idle timeout in seconds
	// (default 1 — fires during the drain, exercising idle expiry).
	IdleTimeoutSec int
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
	if o.Rate == 0 {
		o.Rate = 40
	}
	if o.Flows == 0 {
		o.Flows = 24
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 6
	}
	if o.IdleTimeoutSec == 0 {
		o.IdleTimeoutSec = 1
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// tableMgmtCell is the raw metric set of one (topo, capacity, policy,
// aggregation, mechanism, seed) run.
type tableMgmtCell struct {
	switches        int
	delivered, sent int64
	setupMs         float64
	packetIns       int64
	occMean         float64
	occMax          float64
	installs        uint64
	replacements    uint64
	active          uint64
	removedIdle     uint64
	removedHard     uint64
	removedDelete   uint64
	removedEvict    uint64
	rejects         uint64
	cleared         uint64
	ledgerGap       int64
	aggregations    uint64
	rulesCompressed uint64
	coveredSkips    uint64
	tableFullErrs   uint64
	leakedUnits     int
}

// TableMgmtPoint aggregates one grid cell across repeats.
type TableMgmtPoint struct {
	Topo        string
	Capacity    int
	Policy      flowtable.EvictionPolicy
	Aggregation bool
	Series      string
	Switches    int
	// Delivery and SetupMs observe one per-repeat sample each.
	Delivery metrics.Summary
	SetupMs  metrics.Summary
	// The rule ledger and aggregation counters are summed across repeats.
	PacketIns       int64
	Installs        uint64
	Replacements    uint64
	Active          uint64
	RemovedIdle     uint64
	RemovedHard     uint64
	RemovedDelete   uint64
	RemovedEvict    uint64
	Rejects         uint64
	Cleared         uint64
	Aggregations    uint64
	RulesCompressed uint64
	CoveredSkips    uint64
	TableFullErrors uint64
	// OccupancyMean averages the per-repeat buffer occupancy means;
	// OccupancyMax is the worst repeat.
	OccupancyMean metrics.Summary
	OccupancyMax  float64
	// LedgerGap and LeakedUnits are worst-of across repeats — acceptance
	// demands zero for both: every installed rule is accounted for and no
	// buffer unit leaks.
	LedgerGap   int64
	LeakedUnits int
}

// TableMgmtSweepResult is a completed table-management sweep.
type TableMgmtSweepResult struct {
	Options TableMgmtOptions
	Points  []TableMgmtPoint
}

// tableMgmtFrameSize is the table-management sweep's frame size, in place of
// the other scenarios' frameSize.
const tableMgmtFrameSize = 600

func runTableMgmtCell(j tableMgmtJob, opts TableMgmtOptions) (tableMgmtCell, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return tableMgmtCell{}, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return tableMgmtCell{}, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(tableMgmtFrameSize, opts.Rate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return tableMgmtCell{}, err
	}
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	cfg.Forwarder.IdleTimeout = uint16(opts.IdleTimeoutSec)
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
		return tableMgmtCell{}, err
	}
	res, err := fb.Run(sched)
	if err != nil {
		return tableMgmtCell{}, err
	}
	return tableMgmtCell{
		switches:        res.Switches,
		delivered:       res.FramesDelivered,
		sent:            int64(res.FramesSent),
		setupMs:         res.FlowSetupDelay.Mean() * 1e3,
		packetIns:       res.PacketIns,
		occMean:         res.BufferOccupancyMean,
		occMax:          res.BufferOccupancyMax,
		installs:        res.RuleInstalls,
		replacements:    res.RuleReplacements,
		active:          res.RulesActive,
		removedIdle:     res.RemovedIdle,
		removedHard:     res.RemovedHard,
		removedDelete:   res.RemovedDelete,
		removedEvict:    res.RemovedEvict,
		rejects:         res.RuleRejects,
		cleared:         res.RulesCleared,
		ledgerGap:       res.LedgerGap,
		aggregations:    res.Aggregations,
		rulesCompressed: res.RulesCompressed,
		coveredSkips:    res.CoveredSkips,
		tableFullErrs:   res.TableFullErrors,
		leakedUnits:     res.BufferUnitsLeaked,
	}, nil
}

// tableMgmtJob is one scheduled run of the sweep.
type tableMgmtJob struct {
	spec     string
	capacity int
	policy   flowtable.EvictionPolicy
	agg      bool
	series   Series
	seed     int64
}

// RunTableMgmt executes the table-management sweep, fanning the (topo,
// capacity, policy, aggregation, mechanism, repeat) grid across Parallelism
// workers and folding the per-cell metrics in a fixed order: the result
// (and hence the CSV) is byte-identical at any Parallelism.
func RunTableMgmt(opts TableMgmtOptions) (*TableMgmtSweepResult, error) {
	opts = opts.withDefaults()
	var jobs []tableMgmtJob
	for _, spec := range opts.Topos {
		for _, capa := range opts.Capacities {
			for _, policy := range opts.Policies {
				for _, agg := range opts.Aggregation {
					for _, series := range opts.Mechanisms {
						for rep := 0; rep < opts.Repeats; rep++ {
							jobs = append(jobs, tableMgmtJob{
								spec: spec, capacity: capa, policy: policy,
								agg: agg, series: series, seed: int64(rep) + 1,
							})
						}
					}
				}
			}
		}
	}
	vals, err := runCells(jobs, opts.Parallelism, func(j tableMgmtJob) (tableMgmtCell, error) {
		v, err := runTableMgmtCell(j, opts)
		if err != nil {
			return v, fmt.Errorf("experiments: tablemgmt %s/cap%d/%s/agg=%v/%s seed %d: %w",
				j.spec, j.capacity, j.policy, j.agg, j.series.Name, j.seed, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	out := &TableMgmtSweepResult{Options: opts}
	fold := func(p *TableMgmtPoint, v tableMgmtCell) {
		p.Switches = v.switches
		if v.sent > 0 {
			p.Delivery.Observe(float64(v.delivered) / float64(v.sent))
		}
		p.SetupMs.Observe(v.setupMs)
		p.PacketIns += v.packetIns
		p.Installs += v.installs
		p.Replacements += v.replacements
		p.Active += v.active
		p.RemovedIdle += v.removedIdle
		p.RemovedHard += v.removedHard
		p.RemovedDelete += v.removedDelete
		p.RemovedEvict += v.removedEvict
		p.Rejects += v.rejects
		p.Cleared += v.cleared
		p.Aggregations += v.aggregations
		p.RulesCompressed += v.rulesCompressed
		p.CoveredSkips += v.coveredSkips
		p.TableFullErrors += v.tableFullErrs
		p.OccupancyMean.Observe(v.occMean)
		if v.occMax > p.OccupancyMax {
			p.OccupancyMax = v.occMax
		}
		if gap := v.ledgerGap; gap < 0 {
			gap = -gap
			if gap > p.LedgerGap {
				p.LedgerGap = gap
			}
		} else if gap > p.LedgerGap {
			p.LedgerGap = gap
		}
		if v.leakedUnits > p.LeakedUnits {
			p.LeakedUnits = v.leakedUnits
		}
	}
	i := 0
	for _, spec := range opts.Topos {
		for _, capa := range opts.Capacities {
			for _, policy := range opts.Policies {
				for _, agg := range opts.Aggregation {
					for _, series := range opts.Mechanisms {
						p := TableMgmtPoint{Topo: spec, Capacity: capa, Policy: policy,
							Aggregation: agg, Series: series.Name}
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
// (topo, capacity, policy, aggregation, mechanism).
func (r *TableMgmtSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "tablemgmt — %d flows × %d pkts at %g Mbps, idle %ds, %d repeats\n",
		r.Options.Flows, r.Options.PktsPerFlow, r.Options.Rate, r.Options.IdleTimeoutSec, r.Options.Repeats); err != nil {
		return err
	}
	header := fmt.Sprintf("%-18s %5s %-7s %-4s %-18s %9s %9s %9s %7s %7s %7s %7s %7s %8s %7s %5s",
		"topo", "cap", "policy", "agg", "mechanism", "delivery", "setup_ms", "pktins",
		"install", "evict", "idle", "reject", "aggs", "squeezed", "occmax", "gap")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, p := range r.Points {
		agg := "off"
		if p.Aggregation {
			agg = "on"
		}
		if _, err := fmt.Fprintf(w, "%-18s %5d %-7s %-4s %-18s %9.4f %9.3f %9d %7d %7d %7d %7d %7d %8d %7.1f %5d\n",
			p.Topo, p.Capacity, p.Policy, agg, p.Series,
			p.Delivery.Mean(), p.SetupMs.Mean(), p.PacketIns,
			p.Installs, p.RemovedEvict, p.RemovedIdle, p.Rejects,
			p.Aggregations, p.RulesCompressed, p.OccupancyMax, p.LedgerGap); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the sweep as CSV rows:
// topo,capacity,policy,aggregation,mechanism,switches,delivery_mean,setup_ms_mean,packet_ins,installs,replacements,active,removed_idle,removed_hard,removed_delete,removed_evict,rejects,cleared,ledger_gap,aggregations,rules_compressed,covered_skips,table_full_errors,occupancy_mean,occupancy_max,leaked_units.
// The topo column is quoted when the spec itself contains commas.
func (r *TableMgmtSweepResult) WriteCSV(w io.Writer, includeHeader bool) error {
	if includeHeader {
		if _, err := fmt.Fprintln(w, "topo,capacity,policy,aggregation,mechanism,switches,delivery_mean,setup_ms_mean,packet_ins,installs,replacements,active,removed_idle,removed_hard,removed_delete,removed_evict,rejects,cleared,ledger_gap,aggregations,rules_compressed,covered_skips,table_full_errors,occupancy_mean,occupancy_max,leaked_units"); err != nil {
			return err
		}
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%v,%s,%d,%g,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d\n",
			csvQuote(p.Topo), p.Capacity, p.Policy, p.Aggregation, p.Series, p.Switches,
			p.Delivery.Mean(), p.SetupMs.Mean(), p.PacketIns,
			p.Installs, p.Replacements, p.Active,
			p.RemovedIdle, p.RemovedHard, p.RemovedDelete, p.RemovedEvict,
			p.Rejects, p.Cleared, p.LedgerGap,
			p.Aggregations, p.RulesCompressed, p.CoveredSkips, p.TableFullErrors,
			p.OccupancyMean.Mean(), p.OccupancyMax, p.LeakedUnits); err != nil {
			return err
		}
	}
	return nil
}
