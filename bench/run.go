package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Protocol: every repeat runs in a fresh child — the program re-executes
// itself as `bench worker …` — so nothing one repeat has warmed up or
// memoised makes the next one cheaper, cold-start cost is paid as users pay
// it, and CPU time and peak RSS are the child's own. bench_test.go runs the
// same code in process (--quick), where only the sizes differ.

//go:embed golden/*.sha256
var goldenFS embed.FS

// goldenMismatch compares a digest with the one committed for the workload
// and returns what is wrong, "" if nothing. Goldens exist for simulations, at
// full size, at seed 1 — and at any seed for paper-figs, which takes none.
func goldenMismatch(w *workload, o runOpts, digest string) string {
	b, err := goldenFS.ReadFile("golden/" + w.Name + ".sha256")
	if err != nil || o.Quick || (o.Seed != 1 && w != paperFigs) {
		return ""
	}
	if want := strings.TrimSpace(string(b)); digest != want {
		return fmt.Sprintf("digest %s differs from golden %s", digest, want)
	}
	return ""
}

// extraSetups is how many set-up-only children a run adds to its repeats, so
// that setup_s is a median of some twenty samples, not of three: a set-up is
// a few milliseconds of process start, and a single one can take twice that.
const extraSetups = 16

type runOpts struct {
	Seed    int64
	Seconds float64 // measuring time of the run; repeats derive from it
	Repeats int     // > 0 overrides the derivation (full runs)
	Quick   bool    // in process, tiny sizes
	OutDir  string  // where traces go
	Log     io.Writer
}

// plan turns the options into a repeat count and a live repeat's duration.
func (o runOpts) plan(w *workload) (reps int, dur time.Duration) {
	if o.Quick {
		return max(o.Repeats, 1), 60 * time.Millisecond
	}
	if o.Repeats > 0 {
		return o.Repeats, time.Duration(w.RepSeconds * float64(time.Second))
	}
	reps = int(math.Round(o.Seconds / w.RepSeconds))
	if reps < 1 {
		reps = 1
	}
	return reps, time.Duration(o.Seconds / float64(reps) * float64(time.Second))
}

// repeat runs one repeat: in a child process, or here under Quick.
func repeat(w *workload, c runCtx, inProcess bool) (sample, error) {
	if inProcess {
		c.SpawnedAt = time.Now()
		return runOne(w, c), nil
	}
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := []string{"worker", "--workload", w.Name,
		"--seed", strconv.FormatInt(c.Seed, 10),
		"--dur-ns", strconv.FormatInt(int64(c.Dur), 10)}
	if c.Counts {
		args = append(args, "--counts")
	}
	if c.SetupOnly {
		args = append(args, "--setup-only")
	}
	// Last, and as late as possible: the clock set-up time is measured from.
	args = append(args, "--spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	// A wedged repeat must not hold the run past the driver's patience.
	ctx, cancel := context.WithTimeout(context.Background(), c.Dur+90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("worker %s: %v: %s", w.Name, err, strings.TrimSpace(stderr.String()))
	}
	var s sample
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &s); err != nil {
		return sample{}, fmt.Errorf("worker %s: bad output %q: %v", w.Name, stdout.String(), err)
	}
	return s, nil
}

// dist is one metric over the repeats of a run.
type dist struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newDist(unit string, samples []float64) *dist {
	q1, q3 := quartiles(samples)
	return &dist{Unit: unit, Median: median(samples), Q1: q1, Q3: q3, Samples: samples}
}

// wlResult is one workload's part of a result file.
type wlResult struct {
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Digest     string             `json:"digest,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
	LatSamples int                `json:"lat_samples_per_repeat"`
	Metrics    map[string]*dist   `json:"end_to_end"`
	Layers     map[string]float64 `json:"per_layer,omitempty"`
}

func (r *wlResult) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// measure is the untraced run of one workload: its repeats, the extra
// set-ups, the digest checks, the medians.
func measure(w *workload, o runOpts) (*wlResult, error) {
	reps, dur := o.plan(w)
	res := &wlResult{Correct: true, Metrics: map[string]*dist{}}
	values := map[string][]float64{}
	for i := 0; i < reps; i++ {
		s, err := repeat(w, runCtx{Seed: o.Seed, Dur: dur, Quick: o.Quick}, o.Quick)
		if err != nil {
			return nil, err
		}
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		res.LatSamples = s.LatSamples
		if s.Err != "" {
			res.fail("repeat %d: %s", i+1, s.Err)
		}
		if i == 0 {
			res.Digest = s.Digest
		} else if s.Digest != res.Digest {
			res.fail("repeat %d: digest %s differs from the first repeat's %s", i+1, s.Digest, res.Digest)
		}
		for name, v := range s.endToEndValues() {
			values[name] = append(values[name], v)
		}
		if o.Log != nil {
			fmt.Fprintf(o.Log, "  %s repeat %d/%d: %d ops in %.3f s\n", w.Name, i+1, reps, s.Ops, s.WallS)
		}
	}
	if msg := goldenMismatch(w, o, res.Digest); msg != "" {
		res.fail("%s", msg)
	}
	extra := extraSetups
	if o.Quick {
		extra = 1
	}
	for i := 0; i < extra; i++ {
		s, err := repeat(w, runCtx{Seed: o.Seed, Dur: dur, Quick: o.Quick, SetupOnly: true}, o.Quick)
		if err != nil {
			return nil, err
		}
		if s.Err != "" {
			res.fail("set-up %d: %s", i+1, s.Err)
		}
		values["setup_s"] = append(values["setup_s"], s.SetupS)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = newDist(m.Unit, values[m.Name])
	}
	return res, nil
}

// driverLine is the last line of a driver run's standard output.
func driverLine(res *wlResult, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	if traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = mv{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = mv{m.of(res.Metrics[m.Name]), m.Unit}
		}
	}
	for name, v := range line.Metrics {
		if !finite(v.Value) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return json.Marshal(line)
}

// printEndToEnd prints every end-to-end metric of a workload by name.
func printEndToEnd(out io.Writer, name string, res *wlResult) {
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d lat_samples/repeat=%d\n",
		name, res.Correct, res.Attempted, res.Failed, res.LatSamples)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", e)
	}
	for _, m := range endToEnd {
		d, stat := res.Metrics[m.Name], "median"
		if m.Lowest {
			stat = "lowest"
		}
		fmt.Fprintf(out, "  %-14s %14.4f %-5s  %s of %d, q1 %.4f q3 %.4f  (%s is better, bound %.0f%%)\n",
			m.Name, m.of(d), d.Unit, stat, len(d.Samples), d.Q1, d.Q3, m.Better, m.Bound*100)
	}
}
