// Command bench is the repository's one benchmark: seven named workloads
// over the paper sweep, the fabric simulator and the live control plane,
// eight end-to-end metrics with regression bounds, and a traced run that
// breaks each workload down by layer. See README.md in this directory.
//
//	go run ./bench                       every workload, 5 repeats; bench/out/result.json
//	go run ./bench --trace               the same plus the traced run of each
//	go run ./bench --workload hit-stream --seed 3 --seconds 12 --trace 0
//	                                     one driver run; the last line of stdout is its JSON result
//	go run ./bench compare OLD.json NEW.json
//	go run ./bench golden                rewrite bench/golden/*.sha256 from this tree
//	go run ./bench manifest              print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "worker":
			return workerMain(args[1:])
		case "compare":
			return compareMain(args[1:])
		case "golden":
			return goldenMain(args[1:])
		case "manifest":
			b, err := manifest()
			if err != nil {
				return fatal(err)
			}
			os.Stdout.Write(b)
			return 0
		}
	}
	return benchMain(args)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// workerMain is the child side of the protocol: one repeat, one JSON line.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	durNs := fs.Int64("dur-ns", 0, "")
	counts := fs.Bool("counts", false, "")
	setupOnly := fs.Bool("setup-only", false, "")
	spawnedAt := fs.Int64("spawned-at", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	s := runOne(w, runCtx{
		Seed: *seed, Dur: time.Duration(*durNs), Counts: *counts, SetupOnly: *setupOnly,
		SpawnedAt: time.Unix(0, *spawnedAt),
	})
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		return fatal(err)
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD.json[,OLD2.json…] NEW.json[,NEW2.json…]")
		return 2
	}
	oldR, err := loadResults(args[0])
	if err != nil {
		return fatal(err)
	}
	newR, err := loadResults(args[1])
	if err != nil {
		return fatal(err)
	}
	if compare(os.Stdout, oldR, newR) > 0 {
		return 1
	}
	return 0
}

// goldenMain regenerates the committed digests: every simulation workload
// once through the facade at seed 1, full size.
func goldenMain(args []string) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	dir := fs.String("dir", "bench/golden", "directory to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fatal(err)
	}
	for _, w := range workloads {
		if w.Live {
			continue
		}
		s, err := repeat(w, runCtx{Seed: 1}, false)
		if err != nil {
			return fatal(err)
		}
		if s.Err != "" {
			return fatal(fmt.Errorf("%s: %s", w.Name, s.Err))
		}
		path := filepath.Join(*dir, w.Name+".sha256")
		if err := os.WriteFile(path, []byte(s.Digest+"\n"), 0o644); err != nil {
			return fatal(err)
		}
		fmt.Printf("%s  %s\n", s.Digest, path)
	}
	return 0
}

// splitTraceFlag lets `--trace` stand alone (a full traced run) although the
// driver passes it a value (`--trace 0|1`), which package flag's booleans
// cannot take as a separate argument.
func splitTraceFlag(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "--trace" && a != "-trace" {
			continue
		}
		if i+1 == len(out) || strings.HasPrefix(out[i+1], "-") {
			out[i] = "--trace=1"
		}
	}
	return out
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	one := fs.String("workload", "", "run this one workload as a driver run: the last line of stdout is the JSON result")
	only := fs.String("workloads", "", "full run: comma-separated subset of workloads")
	seed := fs.Int64("seed", 1, "workload seed: Platform.Seed for simulations, the flow order for live workloads")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of a driver run; it makes round(seconds / repeat length) repeats")
	repeats := fs.Int("repeats", 0, "repeats per workload (default: 5, paper-figs 3, in a full run; derived from --seconds in a driver run)")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, attribution table, Chrome trace) instead of, or in a full run after, the measured one")
	quick := fs.Bool("quick", false, "tiny sizes, in process: a smoke test, not a measurement")
	outDir := fs.String("out-dir", "bench/out", "where result.json and trace-<workload>.json go")
	outFile := fs.String("out", "", "full run: result file (default <out-dir>/result.json)")
	if err := fs.Parse(splitTraceFlag(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o := runOpts{Seed: *seed, Seconds: *seconds, Repeats: *repeats, Quick: *quick, OutDir: *outDir, Log: os.Stderr}

	if *one != "" {
		w := findWorkload(*one)
		if w == nil {
			return fatal(fmt.Errorf("unknown workload %q", *one))
		}
		return driverRun(w, o, *trace == 1)
	}

	// Full run.
	rf := &resultFile{Env: stampEnv(), Seed: *seed, Workloads: map[string]*wlResult{}}
	fmt.Printf("env: %d cores (%s), %s, GOMAXPROCS %d, commit %s, 50us sleep takes %.0f us; live = %s\n",
		rf.Env.Cores, rf.Env.CPU, rf.Env.GoVersion, rf.Env.GOMAXPROCS, rf.Env.Commit, rf.Env.TimerResolutionUs, rf.Env.Transport)
	failed := false
	for _, w := range workloads {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.Name+",") {
			continue
		}
		wo := o
		if wo.Repeats == 0 {
			wo.Repeats = w.FullReps
		}
		res, err := measure(w, wo)
		if err != nil {
			return fatal(err)
		}
		printEndToEnd(os.Stdout, w.Name, res)
		if *trace == 1 {
			tr, err := traceWorkload(w, wo, res.Metrics["ops_per_s"].Median)
			if err != nil {
				return fatal(err)
			}
			res.Layers = tr.Layers
			for _, e := range tr.Errors {
				res.fail("traced run: %s", e)
			}
			tr.print(os.Stdout)
		}
		if w == liveCtlW32 {
			if err := generatorSelfCheck(res, wo); err != nil {
				res.fail("%v", err)
				fmt.Println("  CHECK FAILED:", err)
			}
		}
		failed = failed || !res.Correct
		rf.Workloads[w.Name] = res
	}
	path := *outFile
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fatal(err)
	}
	fmt.Println("wrote", path)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

// generatorSelfCheck fails a live-ctl-w32 result that sits too close to what
// the generator can do against a free server: above 0.7 of that ceiling the
// number says as much about the harness as about controller.Server.
func generatorSelfCheck(res *wlResult, o runOpts) error {
	fx, err := newFixtures()
	if err != nil {
		return err
	}
	dur := time.Second
	if o.Quick {
		dur = 30 * time.Millisecond
	}
	ceiling, _, err := probeGenerator(fx, 32, dur, o.Seed)
	if err != nil {
		return err
	}
	got := res.Metrics["ops_per_s"].Median
	fmt.Fprintf(o.Log, "  generator ceiling %.0f/s, live-ctl-w32 at %.0f/s = %.2f of it\n", ceiling, got, got/ceiling)
	if !o.Quick && got > 0.7*ceiling {
		return fmt.Errorf("generator-bound: live-ctl-w32 ran at %.0f/s, above 0.7 of the generator's own ceiling of %.0f/s against a responder that does no work; speed the generator up before trusting this number",
			got, ceiling)
	}
	return nil
}

// driverRun is one run as the acceptance driver makes it: one workload,
// measured or traced, the JSON result as the last line of standard output.
func driverRun(w *workload, o runOpts, traced bool) int {
	var res *wlResult
	if traced {
		tr, err := traceWorkload(w, o, 0)
		if err != nil {
			return fatal(err)
		}
		res = &wlResult{Correct: len(tr.Errors) == 0, Attempted: 1, Errors: tr.Errors, Layers: tr.Layers}
		if !res.Correct {
			res.Failed = 1
		}
		tr.print(os.Stdout)
	} else {
		var err error
		if res, err = measure(w, o); err != nil {
			return fatal(err)
		}
		if w == liveCtlW32 {
			if err := generatorSelfCheck(res, o); err != nil {
				res.fail("%v", err)
				res.Failed = res.Attempted
			}
		}
		printEndToEnd(os.Stdout, w.Name, res)
	}
	line, err := driverLine(res, traced)
	if err != nil {
		return fatal(err)
	}
	fmt.Printf("%s\n", line)
	return 0
}
