package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"sdnbuffer/internal/chaos"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/openflow"
	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/switchd"
	"sdnbuffer/internal/testbed"
)

// SeriesFlowHardened is the flow-granularity mechanism with the re-request
// budget enabled: after 8 attempts (backing off 200% per resend) the flow's
// buffer is released and its packets fall back to full-packet packet_ins.
var SeriesFlowHardened = Series{
	Name: "flow-hardened",
	Buffer: openflow.FlowBufferConfig{
		Granularity:         openflow.GranularityFlow,
		RerequestTimeoutMs:  50,
		MaxRerequests:       8,
		RerequestBackoffPct: 200,
	},
	BufferCapacity: 256,
}

// ResilienceOptions scale the loss-rate × mechanism sweep. The zero value is
// filled with the defaults the report quotes.
type ResilienceOptions struct {
	// LossRates are the control-channel loss probabilities swept (default
	// 0, 1%, 2%, 5%, 10%, both directions).
	LossRates []float64
	// BurstLen, when > 1, switches the loss model from i.i.d. to
	// Gilbert–Elliott with this mean burst length (in control messages).
	BurstLen float64
	// Repeats is the number of seeds per point (default 3).
	Repeats int
	// Flows, PktsPerFlow, Group shape the interleaved-burst workload
	// (default 50/20/5, the §V shape), sent at singleSwitchRate.
	Flows, PktsPerFlow, Group int
	// Parallelism fans the (series, loss, repeat) grid across workers
	// (default GOMAXPROCS). Results are folded in a fixed order, so output
	// is byte-identical at any setting.
	Parallelism int
}

func (o ResilienceOptions) withDefaults() ResilienceOptions {
	if len(o.LossRates) == 0 {
		o.LossRates = []float64{0, 0.01, 0.02, 0.05, 0.10}
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Flows == 0 {
		o.Flows = 50
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 20
	}
	if o.Group == 0 {
		o.Group = 5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// The resilience and outage scenarios send at singleSwitchRate Mbps, and
// bufferExpiry bounds buffered-packet lifetime so units stranded by a lost
// request eventually expire.
const (
	singleSwitchRate float64 = 50
	bufferExpiry             = time.Second
)

// ResilienceSeries are the mechanisms the sweep compares: packet granularity
// (no re-request), flow granularity (retry forever) and the hardened flow
// mechanism (bounded retries with backoff and give-up).
func ResilienceSeries() []Series {
	return []Series{SeriesPacketGranularity, SeriesFlowGranularity, SeriesFlowHardened}
}

// resilienceJob is one (series, loss, seed) run.
type resilienceJob struct {
	series Series
	loss   float64
	seed   int64
}

type singleRun = *testbed.Result

// resilienceConfig builds the testbed for one cell: §V platform, combined
// flow_mods (atomic install+release keeps drains exactly-once under
// duplicated re-requests) and the cell's loss plan.
func resilienceConfig(j resilienceJob, opts ResilienceOptions) (testbed.Config, error) {
	cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
	cfg.Seed = j.seed
	cfg.Switch.Datapath.BufferExpiry = bufferExpiry
	cfg.Forwarder.CombinedFlowMod = true
	if j.loss > 0 {
		if opts.BurstLen > 1 {
			plan, err := chaos.BurstyLoss(j.loss, opts.BurstLen)
			if err != nil {
				return cfg, err
			}
			cfg.Chaos = plan
		} else {
			cfg.Chaos = chaos.SymmetricLoss(j.loss)
		}
	}
	return cfg, nil
}

// runSingleSwitch runs the §V interleaved-burst workload at singleSwitchRate
// on the one-switch platform cfg describes.
func runSingleSwitch(cfg testbed.Config, flows, pktsPerFlow, group int) (singleRun, error) {
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, singleSwitchRate, cfg.Seed, singleSwitchDst),
		flows, pktsPerFlow, group)
	if err != nil {
		return nil, err
	}
	return tb.Run(sched)
}

// RunResilience executes the loss-rate × mechanism sweep, one row per
// (series, loss rate) folded over its repeats: delivery's mean, stddev and
// min, the re-request counters and duplicate and out-of-order emissions at
// the switch's transmit tap (summed), and the worst pool occupancy left at
// quiescence (leaked; acceptance demands zero for the flow series). Output
// is byte-identical at any Parallelism.
func RunResilience(opts ResilienceOptions) (*Table, error) {
	opts = opts.withDefaults()
	var groups [][]resilienceJob
	for _, s := range ResilienceSeries() {
		for _, loss := range opts.LossRates {
			groups = append(groups, repeatGroup(opts.Repeats, func(seed int64) resilienceJob {
				return resilienceJob{series: s, loss: loss, seed: seed}
			}))
		}
	}
	return sweep[resilienceJob, singleRun]{
		name: "resilience",
		title: fmt.Sprintf("resilience — delivery under control-channel loss (rate %g Mbps, %d repeats)",
			singleSwitchRate, opts.Repeats),
		groups: groups,
		cell: func(j resilienceJob) (singleRun, error) {
			cfg, err := resilienceConfig(j, opts)
			if err != nil {
				return nil, err
			}
			return runSingleSwitch(cfg, opts.Flows, opts.PktsPerFlow, opts.Group)
		},
		cols: []column[resilienceJob, singleRun]{
			{name: "series", key: func(j resilienceJob) string { return j.series.Name }},
			{name: "loss_rate", key: func(j resilienceJob) string { return strconv.FormatFloat(j.loss, 'g', -1, 64) }},
			{name: "delivery_mean", fold: foldMean, sample: delivery},
			{name: "delivery_stddev", fold: foldStdDev, sample: delivery},
			{name: "delivery_min", fold: foldMin, sample: delivery},
			{name: "rerequests", fold: foldSum, sample: func(r singleRun) float64 { return float64(r.Rerequests) }},
			{name: "giveups", fold: foldSum, sample: giveups},
			{name: "fallbacks", fold: foldSum, sample: func(r singleRun) float64 { return float64(r.BufferFallbacks) }},
			{name: "leaked", fold: foldWorst, sample: leaked},
			{name: "dups", fold: foldSum, sample: dups},
			{name: "misorders", fold: foldSum, sample: misorders},
		},
	}.run(opts.Parallelism)
}

// Per-run samples the resilience and outage columns share.
func giveups(r singleRun) float64   { return float64(r.Giveups) }
func leaked(r singleRun) float64    { return float64(r.BufferUnitsLeaked) }
func dups(r singleRun) float64      { return float64(r.DupEmissions) }
func misorders(r singleRun) float64 { return float64(r.OrderViolations) }

// OutageOptions configure the control-channel blackout scenario.
type OutageOptions struct {
	// Window is the blackout (default 40ms–120ms, mid-workload).
	Window netem.Window
	// Flows, PktsPerFlow, Group shape the workload exactly as in
	// ResilienceOptions.
	Flows, PktsPerFlow, Group int
}

func (o OutageOptions) withDefaults() OutageOptions {
	if o.Window == (netem.Window{}) {
		o.Window = netem.Window{Start: 40 * time.Millisecond, End: 120 * time.Millisecond}
	}
	if o.Flows == 0 {
		o.Flows = 50
	}
	if o.PktsPerFlow == 0 {
		o.PktsPerFlow = 20
	}
	if o.Group == 0 {
		o.Group = 5
	}
	return o
}

// outageJob is one (mechanism, fail mode) cell of the outage grid.
type outageJob struct {
	series Series
	mode   switchd.FailMode
}

// RunOutage runs the blackout scenario for {no-buffer, flow-granularity} ×
// {fail-secure, fail-standalone}, one seed each, across parallelism
// workers (at least one): the switch sees the control channel die mid-workload, degrades
// per its fail mode, and recovers when the window ends. Each row carries
// delivery, the datapath fail-mode counters (standalone forwards and
// control-down misses) and the giveup, leak, duplicate and misorder counts.
func RunOutage(opts OutageOptions, parallelism int) (*Table, error) {
	opts = opts.withDefaults()
	var groups [][]outageJob
	for _, s := range []Series{SeriesNoBuffer, SeriesFlowGranularity} {
		for _, mode := range []switchd.FailMode{switchd.FailSecure, switchd.FailStandalone} {
			groups = append(groups, []outageJob{{series: s, mode: mode}})
		}
	}
	return sweep[outageJob, singleRun]{
		name: "outage",
		title: fmt.Sprintf("outage — control blackout %v–%v at %g Mbps",
			opts.Window.Start, opts.Window.End, singleSwitchRate),
		groups: groups,
		cell: func(j outageJob) (singleRun, error) {
			cfg := testbed.DefaultConfig(j.series.Buffer, j.series.BufferCapacity)
			cfg.Seed = 1
			cfg.Switch.Datapath.BufferExpiry = bufferExpiry
			cfg.Switch.Datapath.FailMode = j.mode
			cfg.Forwarder.CombinedFlowMod = true
			cfg.Chaos = &chaos.Plan{
				Name:          fmt.Sprintf("outage-%s-%s", j.series.Name, j.mode),
				SwitchOutages: []netem.Window{opts.Window},
			}
			return runSingleSwitch(cfg, opts.Flows, opts.PktsPerFlow, opts.Group)
		},
		cols: []column[outageJob, singleRun]{
			{name: "series", key: func(j outageJob) string { return j.series.Name }},
			{name: "fail_mode", key: func(j outageJob) string { return j.mode.String() }},
			{name: "delivery", fold: foldMean, sample: delivery},
			{name: "standalone_forwards", fold: foldSum, sample: func(r singleRun) float64 { return float64(r.StandaloneForwards) }},
			{name: "control_down_misses", fold: foldSum, sample: func(r singleRun) float64 { return float64(r.ControlDownMisses) }},
			{name: "giveups", fold: foldSum, sample: giveups},
			{name: "leaked", fold: foldWorst, sample: leaked},
			{name: "dups", fold: foldSum, sample: dups},
			{name: "misorders", fold: foldSum, sample: misorders},
		},
	}.run(parallelism)
}
