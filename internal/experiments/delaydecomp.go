package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sdnbuffer/internal/pktgen"
	"sdnbuffer/internal/telemetry"
	"sdnbuffer/internal/testbed"
)

// DelayDecompOptions scale the per-stage delay decomposition sweep: for each
// (series, rate, repeat) cell the platform runs with the telemetry recorder
// wired in, and the recorded spans are folded into one delay histogram per
// lifecycle stage.
type DelayDecompOptions struct {
	// Rates are the sending-rate sweep points in Mbps (default 20, 50, 80 —
	// light, moderate and heavy load on the 100 Mbps links).
	Rates []float64
	// Repeats is the number of seeds per point (default 3).
	Repeats int
	// Flows, PktsPerFlow, Group shape the interleaved-burst workload
	// (default 50/20/5, the §V shape: the miss path and the fast path both
	// appear).
	Flows, PktsPerFlow, Group int
	// Parallelism fans the (series, rate, repeat) grid across workers
	// (default GOMAXPROCS). Per-cell histograms are merged in a fixed order,
	// so output is byte-identical at any setting.
	Parallelism int
}

// decompSpanCapacity sizes each cell's tracer ring. A cell whose ring
// overflows fails the sweep: a decomposition over a partial window would
// silently misreport the early stages.
const decompSpanCapacity = 1 << 18

func (o DelayDecompOptions) withDefaults() DelayDecompOptions {
	if len(o.Rates) == 0 {
		o.Rates = []float64{20, 50, 80}
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

// DelayDecompSeries are the buffer configurations the decomposition
// compares: the no-buffer baseline against both buffering granularities.
func DelayDecompSeries() []Series {
	return []Series{SeriesNoBuffer, SeriesPacketGranularity, SeriesFlowGranularity}
}

// decompCell is one (series, rate, seed) run's decomposition plus the
// queueing-model inputs measured from the same spans.
type decompCell struct {
	decomp *telemetry.Decomposition
	// svcMsgs counts controller-service spans (answered control messages),
	// ctlBusy sums controller-CPU service intervals, elapsed is the cell's
	// measurement window — together they estimate the M/M/c arrival and
	// service rates.
	svcMsgs int64
	ctlBusy time.Duration
	elapsed time.Duration
}

// DelayDecompPoint is one (series, rate) aggregate: merged per-stage delay
// statistics and the single-node queueing model's prediction for the
// controller-service stage at the measured load.
type DelayDecompPoint struct {
	RateMbps float64
	// Stages reports every decomposition stage in DecompStages order
	// (seconds).
	Stages []telemetry.StageStats
	// Lambda is the measured controller message arrival rate (msgs/s), Mu
	// the measured per-message service rate of one core (msgs/s), Servers
	// the controller core count.
	Lambda, Mu float64
	Servers    int
	// ModelSojourn is the M/M/c mean sojourn prediction W = 1/µ + Wq in
	// seconds (Inf when the measured load saturates the model, NaN when no
	// control messages were observed). Compare against the
	// controller-service stage's measured mean.
	ModelSojourn float64
}

// DelayDecompSeriesResult is one series' sweep.
type DelayDecompSeriesResult struct {
	Series Series
	Points []DelayDecompPoint
}

// DelayDecompResult is a completed delay-decomposition sweep.
type DelayDecompResult struct {
	Options DelayDecompOptions
	Series  []DelayDecompSeriesResult
}

func runDelayDecompCell(s Series, opts DelayDecompOptions, rate float64, seed int64) (decompCell, error) {
	tb, res, err := runTraced(s, opts, rate, seed)
	if err != nil {
		return decompCell{}, err
	}
	tracer := tb.Telemetry().Tracer()
	if d := tracer.Dropped(); d > 0 {
		return decompCell{}, fmt.Errorf("tracer ring overflowed: %d spans dropped past its %d-span capacity (decompSpanCapacity)",
			d, decompSpanCapacity)
	}
	dec, err := telemetry.NewDecomposition(nil)
	if err != nil {
		return decompCell{}, err
	}
	out := decompCell{decomp: dec, elapsed: res.Elapsed}
	for _, sp := range tracer.Snapshot() {
		dec.Add(sp)
		switch sp.Kind {
		case telemetry.KindControllerService:
			out.svcMsgs++
		case telemetry.KindControllerCPU:
			out.ctlBusy += sp.Duration()
		}
	}
	return out, nil
}

// ErlangC is the Erlang-C delay probability C(c, a): the probability an
// arrival to an M/M/c queue with offered load a = λ/µ Erlangs has to wait.
// It is the single-node model the related measurement literature fits SDN
// controller delay with; see EXPERIMENTS.md §delay-decomposition.
func ErlangC(c int, a float64) float64 {
	if c <= 0 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1 // saturated: every arrival waits
	}
	// term accumulates a^k/k! iteratively to avoid factorial overflow.
	term := 1.0
	sum := 1.0 // k = 0
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	top := term * a / float64(c) * float64(c) / (float64(c) - a) // a^c/c! · c/(c−a)
	return top / (sum + top)
}

// MMcSojourn is the M/M/c mean sojourn time W = 1/µ + C(c,λ/µ)/(cµ−λ) in
// seconds. It returns +Inf at or beyond saturation and NaN for λ ≤ 0.
func MMcSojourn(lambda, mu float64, c int) float64 {
	if lambda <= 0 || mu <= 0 || c <= 0 {
		return math.NaN()
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	return 1/mu + ErlangC(c, a)/(float64(c)*mu-lambda)
}

// RunDelayDecomp executes the delay-decomposition sweep, fanning the
// (series, rate, repeat) grid across Parallelism workers and merging the
// per-cell stage histograms in a fixed order — the same determinism contract
// as Run, so table and CSV bytes are identical at any parallelism.
func RunDelayDecomp(opts DelayDecompOptions) (*DelayDecompResult, error) {
	opts = opts.withDefaults()
	series := DelayDecompSeries()
	servers := testbed.DefaultConfig(series[0].Buffer, series[0].BufferCapacity).Controller.CPUCores
	type dcell struct{ s, r, rep int }
	var cells []dcell
	for si := range series {
		for ri := range opts.Rates {
			for rep := 0; rep < opts.Repeats; rep++ {
				cells = append(cells, dcell{s: si, r: ri, rep: rep})
			}
		}
	}
	vals, err := runCells(cells, opts.Parallelism, func(c dcell) (decompCell, error) {
		v, err := runDelayDecompCell(series[c.s], opts, opts.Rates[c.r], int64(c.rep)+1)
		if err != nil {
			return v, fmt.Errorf("experiments: delay-decomp %s at %g Mbps rep %d: %w",
				series[c.s].Name, opts.Rates[c.r], c.rep, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	out := &DelayDecompResult{Options: opts}
	i := 0
	for _, s := range series {
		sr := DelayDecompSeriesResult{Series: s}
		for _, rate := range opts.Rates {
			merged, err := telemetry.NewDecomposition(nil)
			if err != nil {
				return nil, err
			}
			var svcMsgs int64
			var ctlBusy, elapsed time.Duration
			for rep := 0; rep < opts.Repeats; rep++ {
				v := vals[i]
				i++
				if err := merged.Merge(v.decomp); err != nil {
					return nil, err
				}
				svcMsgs += v.svcMsgs
				ctlBusy += v.ctlBusy
				elapsed += v.elapsed
			}
			p := DelayDecompPoint{
				RateMbps: rate,
				Stages:   merged.Stats(),
				Servers:  servers,
			}
			if elapsed > 0 {
				p.Lambda = float64(svcMsgs) / elapsed.Seconds()
			}
			if ctlBusy > 0 {
				p.Mu = float64(svcMsgs) / ctlBusy.Seconds()
			}
			p.ModelSojourn = MMcSojourn(p.Lambda, p.Mu, servers)
			sr.Points = append(sr.Points, p)
		}
		out.Series = append(out.Series, sr)
	}
	return out, nil
}

// measuredControllerService returns the measured controller-service stage of
// a point (nil if absent).
func (p *DelayDecompPoint) measuredControllerService() *telemetry.StageStats {
	for i := range p.Stages {
		if p.Stages[i].Stage == telemetry.KindControllerService {
			return &p.Stages[i]
		}
	}
	return nil
}

// Table renders the measured stage statistics, one row per (series, rate,
// stage) with times in microseconds. Its title carries the M/M/c model's
// prediction for the controller-service stage of every (series, rate) beside
// the measured mean.
func (r *DelayDecompResult) Table() *Table {
	title := []string{fmt.Sprintf("delay-decomp — per-stage delay decomposition (%d×%d-packet flows, %d repeats)",
		r.Options.Flows, r.Options.PktsPerFlow, r.Options.Repeats)}
	t := &Table{Header: []string{"series", "rate_mbps", "stage", "count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"}}
	for _, s := range r.Series {
		for _, p := range s.Points {
			rate := strconv.FormatFloat(p.RateMbps, 'g', -1, 64)
			for _, st := range p.Stages {
				t.Rows = append(t.Rows, []string{s.Series.Name, rate, st.Stage.String(), strconv.FormatInt(st.Count, 10),
					telemetry.Micros(st.Mean), telemetry.Micros(st.P50), telemetry.Micros(st.P95),
					telemetry.Micros(st.P99), telemetry.Micros(st.Max)})
			}
			if meas := p.measuredControllerService(); meas != nil && meas.Count > 0 {
				title = append(title, fmt.Sprintf("%s %s Mbps model: M/M/%d λ=%.0f/s µ=%.0f/s → sojourn %s µs (measured %s µs)",
					s.Series.Name, rate, p.Servers, p.Lambda, p.Mu,
					telemetry.Micros(p.ModelSojourn), telemetry.Micros(meas.Mean)))
			}
		}
	}
	t.Title = strings.Join(title, "\n")
	return t
}

// RunTraced executes one (series, rate) run with the telemetry recorder
// wired in and returns the testbed for span and flow-record export — the
// benchrunner -trace path.
func RunTraced(s Series, opts DelayDecompOptions, rate float64, seed int64) (*testbed.Testbed, error) {
	tb, _, err := runTraced(s, opts.withDefaults(), rate, seed)
	return tb, err
}

// runTraced runs one (series, rate, seed) cell with the telemetry recorder
// wired in; opts must already carry its defaults.
func runTraced(s Series, opts DelayDecompOptions, rate float64, seed int64) (*testbed.Testbed, *testbed.Result, error) {
	cfg := testbed.DefaultConfig(s.Buffer, s.BufferCapacity)
	cfg.Seed = seed
	cfg.Telemetry = &telemetry.Config{SpanCapacity: decompSpanCapacity}
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sched, err := pktgen.InterleavedBursts(workloadConfig(frameSize, rate, seed, singleSwitchDst),
		opts.Flows, opts.PktsPerFlow, opts.Group)
	if err != nil {
		return nil, nil, err
	}
	res, err := tb.Run(sched)
	if err != nil {
		return nil, nil, err
	}
	return tb, res, nil
}
