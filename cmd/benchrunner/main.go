// Command benchrunner regenerates the paper's evaluation: it runs every
// table/figure experiment (or a selected subset) at paper scale, prints the
// per-rate series tables, derives the paper's headline claims from the
// measured data, and optionally writes CSV for plotting.
//
// Usage:
//
//	benchrunner                         # all 16 figures, paper-scale sweep
//	benchrunner -experiments fig2a,fig8 # a subset
//	benchrunner -quick                  # reduced sweep for a fast look
//	benchrunner -scenario resilience    # loss-rate × mechanism resilience sweep
//	benchrunner -scenario outage        # control-blackout fail-mode scenario
//	benchrunner -scenario delay-decomp  # per-stage delay decomposition vs M/M/c model
//	benchrunner -scenario fabric        # multi-switch topology × mechanism × install sweep
//	benchrunner -scenario survivability # mid-run link/switch failure × mechanism reconvergence sweep
//	benchrunner -scenario tablemgmt     # flow-table capacity × eviction × aggregation × buffer sweep
//	benchrunner -trace out.json         # one traced run → Chrome trace_event JSON
//	benchrunner -flowcsv flows.csv      # same run's NetFlow-style flow records
//	benchrunner -csv results.csv        # also write CSV rows
//	benchrunner -repeats 20             # the paper's repetition count
//	benchrunner -parallel 1             # serial sweep (same output bytes)
//	benchrunner -cpuprofile cpu.pprof   # profile the sweep's hot spots
//	benchrunner -memprofile mem.pprof   # heap profile after the sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sdnbuffer/internal/experiments"
	"sdnbuffer/internal/netem"
	"sdnbuffer/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList  = fs.String("experiments", "", "comma-separated figure ids (default: all)")
		scenario = fs.String("scenario", "",
			"run a scenario instead of the figure sweep: "+scenarioNames(" | "))
		tracePath = fs.String("trace", "",
			"run one telemetry-instrumented workload and write its spans as Chrome trace_event JSON to this file")
		flowCSVPath = fs.String("flowcsv", "",
			"write the traced run's NetFlow-style flow records as CSV to this file (implies the -trace run)")
		repeats  = fs.Int("repeats", 5, "seeds per sweep point (paper: 20)")
		rates    = fs.String("rates", "", "comma-separated sending rates in Mbps (default: 5..100 step 5)")
		flowsA   = fs.Int("flows", 1000, "§IV workload flow count")
		quick    = fs.Bool("quick", false, "reduced sweep: rates 20/50/80, 1 repeat, 300 flows")
		csvPath  = fs.String("csv", "", "write CSV rows to this file")
		plot     = fs.Bool("plot", false, "render an ASCII chart per figure")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"sweep worker goroutines; results are identical at any setting (1 = serial)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "benchrunner: closing cpu profile: %v\n", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "benchrunner: starting cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "benchrunner: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "benchrunner: writing heap profile: %v\n", err)
			}
		}()
	}

	opts := experiments.Options{Repeats: *repeats, FlowsA: *flowsA, Parallelism: *parallel}
	if *rates != "" {
		for _, tok := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintf(stderr, "benchrunner: bad rate %q: %v\n", tok, err)
				return 2
			}
			opts.Rates = append(opts.Rates, v)
		}
	}
	if *quick {
		opts.Rates = []float64{20, 50, 80}
		opts.Repeats = 1
		opts.FlowsA = 300
		opts.FlowsB, opts.PktsPerFlowB, opts.GroupB = 20, 10, 5
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "benchrunner: closing csv: %v\n", err)
			}
		}()
		csv = f
	}

	if *tracePath != "" || *flowCSVPath != "" {
		return runTraced(*tracePath, *flowCSVPath, *quick, stdout, stderr)
	}

	if *scenario != "" {
		return runScenario(*scenario, *quick, *repeats, *parallel, csv, stdout, stderr)
	}

	all := experiments.All()
	selected := all
	if *expList != "" {
		selected = nil
		for _, id := range strings.Split(*expList, ",") {
			exp, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(stderr, "benchrunner: %v\n", err)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	var claims []string
	for i, exp := range selected {
		start := time.Now()
		res, err := experiments.Run(exp, opts)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", exp.ID, err)
			return 1
		}
		if err := res.WriteTable(stdout); err != nil {
			fmt.Fprintf(stderr, "benchrunner: writing table: %v\n", err)
			return 1
		}
		if *plot {
			if err := res.WritePlot(stdout); err != nil {
				fmt.Fprintf(stderr, "benchrunner: writing plot: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "paper claim: %s\n", exp.PaperClaim)
		claims = append(claims, res.Claims()...)
		if csv != nil {
			if err := res.WriteCSV(csv, i == 0); err != nil {
				fmt.Fprintf(stderr, "benchrunner: writing csv: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}

	if len(claims) > 0 {
		fmt.Fprintln(stdout, "==== measured headline comparisons ====")
		for _, c := range claims {
			fmt.Fprintln(stdout, c)
		}
	}
	return 0
}

// scenarios are the -scenario sweeps, in usage order. run gets -quick,
// -repeats and -parallel.
var scenarios = []struct {
	name string
	run  func(quick bool, repeats, parallel int) (*experiments.Table, error)
}{
	{"resilience", func(quick bool, repeats, parallel int) (*experiments.Table, error) {
		opts := experiments.ResilienceOptions{Repeats: repeats, Parallelism: parallel}
		if quick {
			opts.Repeats = 1
			opts.Flows, opts.PktsPerFlow, opts.Group = 20, 10, 5
		}
		return experiments.RunResilience(opts)
	}},
	{"outage", func(quick bool, _, parallel int) (*experiments.Table, error) {
		opts := experiments.OutageOptions{}
		if quick {
			opts.Flows, opts.PktsPerFlow, opts.Group = 20, 10, 5
			opts.Window = netem.Window{Start: 5 * time.Millisecond, End: 20 * time.Millisecond}
		}
		return experiments.RunOutage(opts, parallel)
	}},
	{"delay-decomp", func(quick bool, repeats, parallel int) (*experiments.Table, error) {
		opts := experiments.DelayDecompOptions{Repeats: repeats, Parallelism: parallel}
		if quick {
			opts.Repeats = 1
			opts.Flows, opts.PktsPerFlow, opts.Group = 20, 10, 5
		}
		res, err := experiments.RunDelayDecomp(opts)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}},
	{"fabric", func(quick bool, repeats, parallel int) (*experiments.Table, error) {
		opts := experiments.FabricOptions{Repeats: repeats, Parallelism: parallel}
		if quick {
			opts.Repeats = 1
			opts.Topos = []string{"line:2", "leafspine:leaves=2,spines=1"}
			opts.Mechanisms = []experiments.Series{experiments.SeriesNoBuffer, experiments.SeriesFlowGranularity}
			opts.Flows, opts.PktsPerFlow = 12, 4
			opts.NoScale = true
		}
		return experiments.RunFabric(opts)
	}},
	{"survivability", func(quick bool, repeats, parallel int) (*experiments.Table, error) {
		opts := experiments.SurvivabilityOptions{Repeats: repeats, Parallelism: parallel}
		if quick {
			opts.Repeats = 1
			opts.Topos = []string{"leafspine:leaves=2,spines=2"}
			opts.Mechanisms = []experiments.Series{experiments.SeriesNoBuffer, experiments.SeriesFlowGranularity}
		}
		return experiments.RunSurvivability(opts)
	}},
	{"tablemgmt", func(quick bool, repeats, parallel int) (*experiments.Table, error) {
		opts := experiments.TableMgmtOptions{Repeats: repeats, Parallelism: parallel}
		if quick {
			opts.Repeats = 1
			opts.Capacities = []int{8}
			opts.Mechanisms = []experiments.Series{experiments.SeriesNoBuffer, experiments.SeriesPacketGranularity}
			opts.Flows, opts.PktsPerFlow = 16, 4
		}
		return experiments.RunTableMgmt(opts)
	}},
}

// scenarioNames lists the -scenario values joined by sep.
func scenarioNames(sep string) string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return strings.Join(names, sep)
}

// runScenario runs one named scenario, prints its table and writes its CSV.
func runScenario(name string, quick bool, repeats, parallel int, csv *os.File, stdout, stderr io.Writer) int {
	for _, sc := range scenarios {
		if sc.name != name {
			continue
		}
		start := time.Now()
		res, err := sc.run(quick, repeats, parallel)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", name, err)
			return 1
		}
		if err := res.WriteTable(stdout); err != nil {
			fmt.Fprintf(stderr, "benchrunner: writing table: %v\n", err)
			return 1
		}
		if csv != nil {
			if err := res.WriteCSV(csv, true); err != nil {
				fmt.Fprintf(stderr, "benchrunner: writing csv: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
		return 0
	}
	fmt.Fprintf(stderr, "benchrunner: unknown scenario %q (want %s)\n", name, scenarioNames(", "))
	return 2
}

// runTraced executes one telemetry-instrumented flow-granularity run at
// 50 Mbps and exports its spans (Chrome trace_event JSON, -trace) and
// NetFlow-style flow records (CSV, -flowcsv).
func runTraced(tracePath, flowCSVPath string, quick bool, stdout, stderr io.Writer) int {
	opts := experiments.DelayDecompOptions{}
	if quick {
		opts.Flows, opts.PktsPerFlow, opts.Group = 20, 10, 5
	}
	start := time.Now()
	tb, err := experiments.RunTraced(experiments.SeriesFlowGranularity, opts, 50, 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchrunner: traced run: %v\n", err)
		return 1
	}
	rec := tb.Telemetry()
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %v\n", err)
			return 1
		}
		werr := telemetry.WriteTrace(f, rec.Tracer().Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "benchrunner: writing trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans (%d emitted, %d overwritten) → %s\n",
			rec.Tracer().Len(), rec.Tracer().Emitted(), rec.Tracer().Dropped(), tracePath)
	}
	if flowCSVPath != "" {
		f, err := os.Create(flowCSVPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: %v\n", err)
			return 1
		}
		werr := rec.Flows().WriteCSV(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "benchrunner: writing flow records: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "flow records: %d exported → %s\n", len(rec.Flows().Records()), flowCSVPath)
	}
	fmt.Fprintf(stdout, "(traced run in %v)\n", time.Since(start).Round(time.Millisecond))
	return 0
}
