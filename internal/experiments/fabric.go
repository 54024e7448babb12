package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"sdnbuffer/internal/metrics"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/testbed"
	"sdnbuffer/internal/topo"
)

// FabricOptions scale the fabric sweep: topology × buffer mechanism ×
// install mode × shard count, each cell repeated across seeds, plus one
// at-scale run (≥1000 switches) appended as its own row. The zero value is
// filled with the full-grid defaults, whose CSV digest CI pins.
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
	// Rate is the sending rate in Mbps (default 40); Flows × PktsPerFlow
	// shape the workload (defaults 40 × 4).
	Rate        float64
	Flows       int
	PktsPerFlow int
	// Repeats is the number of seeds per cell (default 2).
	Repeats int
	// Scale is the at-scale topology appended after the grid (default a
	// 1024-switch leaf-spine), run once under flow granularity with path
	// install and ScaleShards controllers. NoScale skips it (quick mode).
	Scale       string
	ScaleShards int
	NoScale     bool
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
	if o.Rate == 0 {
		o.Rate = 40
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
	if o.Scale == "" {
		o.Scale = "leafspine:leaves=1016,spines=8,hosts=16"
	}
	if o.ScaleShards == 0 {
		o.ScaleShards = 4
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// fabricCell is the raw metric set of one (topo, mechanism, install, shards,
// seed) run.
type fabricCell struct {
	switches, hops  int
	delivered, sent int64
	packetIns       int64
	flowMods        int64
	ctrlMbps        float64
	setupMs         float64
	pathInstalls    uint64
	remoteSkips     uint64
	unroutable      uint64
	leakedUnits     int
	leakedBytes     int64
	dups, misorders int64
	misdelivered    int64
}

// FabricPoint aggregates one grid cell across repeats.
type FabricPoint struct {
	Topo     string
	Switches int
	PathHops int
	Series   string
	Install  topo.InstallMode
	Shards   int
	// Delivery and SetupMs observe one per-repeat sample each.
	Delivery metrics.Summary
	SetupMs  metrics.Summary
	// PacketIns, FlowMods, PathInstalls, RemoteSkips and Unroutable are
	// summed across repeats; CtrlMbps averages the switch→controller load.
	PacketIns    int64
	FlowMods     int64
	PathInstalls uint64
	RemoteSkips  uint64
	Unroutable   uint64
	CtrlMbps     float64
	// LeakedUnits / LeakedBytes / Dups / Misorders / Misdelivered are the
	// worst values across repeats — acceptance demands zero for all.
	LeakedUnits  int
	LeakedBytes  int64
	Dups         int64
	Misorders    int64
	Misdelivered int64
}

// FabricSweepResult is a completed fabric sweep.
type FabricSweepResult struct {
	Options FabricOptions
	Points  []FabricPoint
}

func runFabricCell(j fabricJob, opts FabricOptions) (fabricCell, error) {
	s, err := topo.ParseSpec(j.spec)
	if err != nil {
		return fabricCell{}, err
	}
	g, err := topo.Build(s)
	if err != nil {
		return fabricCell{}, err
	}
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	fb, err := testbed.NewFabric(cfg, testbed.FabricOptions{
		Graph:   g,
		Shards:  j.shards,
		Install: j.install,
	})
	if err != nil {
		return fabricCell{}, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, opts.Rate, j.seed, g.Hosts()[1].Addr),
		opts.Flows, opts.PktsPerFlow, 4)
	if err != nil {
		return fabricCell{}, err
	}
	res, err := fb.Run(sched)
	if err != nil {
		return fabricCell{}, err
	}
	return fabricCell{
		switches:     res.Switches,
		hops:         res.PathHops,
		delivered:    res.FramesDelivered,
		sent:         int64(res.FramesSent),
		packetIns:    res.PacketIns,
		flowMods:     res.FlowMods,
		ctrlMbps:     res.CtrlLoadToControllerMbps,
		setupMs:      res.FlowSetupDelay.Mean() * 1e3,
		pathInstalls: res.PathInstalls,
		remoteSkips:  res.RemoteSkips,
		unroutable:   res.Unroutable,
		leakedUnits:  res.BufferUnitsLeaked,
		leakedBytes:  res.BufferBytesLeaked,
		dups:         res.DupEmissions,
		misorders:    res.OrderViolations,
		misdelivered: res.Misdelivered,
	}, nil
}

// fabricJob is one scheduled run of the sweep: a grid cell repeat, or the
// appended scale row (repeats == 1).
type fabricJob struct {
	spec    string
	series  Series
	install topo.InstallMode
	shards  int
	seed    int64
}

// RunFabric executes the fabric sweep, fanning the (topo, mechanism,
// install, shards, repeat) grid — plus the at-scale run — across
// Parallelism workers and folding the per-cell metrics in a fixed order:
// the result (and hence the CSV) is byte-identical at any Parallelism.
func RunFabric(opts FabricOptions) (*FabricSweepResult, error) {
	opts = opts.withDefaults()
	var jobs []fabricJob
	for _, spec := range opts.Topos {
		for _, series := range opts.Mechanisms {
			for _, install := range opts.Installs {
				for _, shards := range opts.Shards {
					for rep := 0; rep < opts.Repeats; rep++ {
						jobs = append(jobs, fabricJob{
							spec: spec, series: series, install: install, shards: shards, seed: int64(rep) + 1,
						})
					}
				}
			}
		}
	}
	scaleStart := len(jobs)
	if !opts.NoScale {
		jobs = append(jobs, fabricJob{
			spec: opts.Scale, series: SeriesFlowGranularity, install: topo.InstallPath,
			shards: opts.ScaleShards, seed: 1,
		})
	}
	vals, err := runCells(jobs, opts.Parallelism, func(j fabricJob) (fabricCell, error) {
		v, err := runFabricCell(j, opts)
		if err != nil {
			return v, fmt.Errorf("experiments: fabric %s/%s/%s/%d shards seed %d: %w",
				j.spec, j.series.Name, j.install, j.shards, j.seed, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	out := &FabricSweepResult{Options: opts}
	fold := func(p *FabricPoint, v fabricCell) {
		p.Switches = v.switches
		p.PathHops = v.hops
		if v.sent > 0 {
			p.Delivery.Observe(float64(v.delivered) / float64(v.sent))
		}
		p.SetupMs.Observe(v.setupMs)
		p.PacketIns += v.packetIns
		p.FlowMods += v.flowMods
		p.PathInstalls += v.pathInstalls
		p.RemoteSkips += v.remoteSkips
		p.Unroutable += v.unroutable
		p.CtrlMbps += v.ctrlMbps
		if v.leakedUnits > p.LeakedUnits {
			p.LeakedUnits = v.leakedUnits
		}
		if v.leakedBytes > p.LeakedBytes {
			p.LeakedBytes = v.leakedBytes
		}
		if v.dups > p.Dups {
			p.Dups = v.dups
		}
		if v.misorders > p.Misorders {
			p.Misorders = v.misorders
		}
		if v.misdelivered > p.Misdelivered {
			p.Misdelivered = v.misdelivered
		}
	}
	i := 0
	for _, spec := range opts.Topos {
		for _, series := range opts.Mechanisms {
			for _, install := range opts.Installs {
				for _, shards := range opts.Shards {
					p := FabricPoint{Topo: spec, Series: series.Name, Install: install, Shards: shards}
					for rep := 0; rep < opts.Repeats; rep++ {
						fold(&p, vals[i])
						i++
					}
					p.CtrlMbps /= float64(opts.Repeats)
					out.Points = append(out.Points, p)
				}
			}
		}
	}
	if !opts.NoScale {
		p := FabricPoint{Topo: opts.Scale, Series: SeriesFlowGranularity.Name,
			Install: topo.InstallPath, Shards: opts.ScaleShards}
		fold(&p, vals[scaleStart])
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// WriteTable renders the sweep as a fixed-width text table, one row per
// (topo, mechanism, install, shards).
func (r *FabricSweepResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fabric — %d flows × %d pkts at %g Mbps, %d repeats\n",
		r.Options.Flows, r.Options.PktsPerFlow, r.Options.Rate, r.Options.Repeats); err != nil {
		return err
	}
	header := fmt.Sprintf("%-40s %4s %4s %-18s %-4s %6s %9s %9s %8s %8s %9s %6s %5s",
		"topo", "sw", "hops", "mechanism", "inst", "shards", "delivery", "setup_ms", "pkt_ins", "flowmods", "installs", "skips", "leak")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%-40s %4d %4d %-18s %-4s %6d %9.4f %9.3f %8d %8d %9d %6d %3d/%d\n",
			p.Topo, p.Switches, p.PathHops, p.Series, p.Install, p.Shards,
			p.Delivery.Mean(), p.SetupMs.Mean(), p.PacketIns, p.FlowMods,
			p.PathInstalls, p.RemoteSkips, p.LeakedUnits, p.LeakedBytes); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// csvQuote wraps a field in RFC 4180 quotes when it contains a comma, as
// topology specs like "leafspine:leaves=8,spines=4" do.
func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteCSV renders the sweep as CSV rows:
// topo,switches,hops,mechanism,install,shards,delivery_mean,setup_ms_mean,setup_ms_stddev,packet_ins,flow_mods,path_installs,remote_skips,ctrl_mbps,unroutable,dups,misorders,misdelivered,leaked_units,leaked_bytes.
// The topo column is quoted when the spec itself contains commas.
func (r *FabricSweepResult) WriteCSV(w io.Writer, includeHeader bool) error {
	if includeHeader {
		if _, err := fmt.Fprintln(w, "topo,switches,hops,mechanism,install,shards,delivery_mean,setup_ms_mean,setup_ms_stddev,packet_ins,flow_mods,path_installs,remote_skips,ctrl_mbps,unroutable,dups,misorders,misdelivered,leaked_units,leaked_bytes"); err != nil {
			return err
		}
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%g,%g,%g,%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%d\n",
			csvQuote(p.Topo), p.Switches, p.PathHops, p.Series, p.Install, p.Shards,
			p.Delivery.Mean(), p.SetupMs.Mean(), p.SetupMs.StdDev(),
			p.PacketIns, p.FlowMods, p.PathInstalls, p.RemoteSkips, p.CtrlMbps,
			p.Unroutable, p.Dups, p.Misorders, p.Misdelivered,
			p.LeakedUnits, p.LeakedBytes); err != nil {
			return err
		}
	}
	return nil
}
