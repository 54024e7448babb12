package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runCtx is the input of one repeat of one workload.
type runCtx struct {
	Seed int64
	// Dur is the length of a live workload's timed region. Simulation
	// workloads have a fixed size instead and ignore it.
	Dur time.Duration
	// Quick shrinks every workload to a few milliseconds (bench_test.go).
	Quick bool
	// Counts makes the repeat a traced one: simulation workloads are
	// assembled from the layers' own constructors instead of through the
	// facade, so that op counts can be read from the layers' accessors.
	Counts bool
	// SpawnedAt is when the process that runs the repeat was started;
	// set-up time is measured from it.
	SpawnedAt time.Time
	// SetupOnly stops after the set-up: one more sample of setup_s.
	SetupOnly bool
}

// outcome is what a workload's timed region hands back.
type outcome struct {
	// Ops is what completed (sim: delivered data frames; live: round trips
	// or flow set-ups); Attempted is what was asked for.
	Ops, Attempted int64
	// Digest is the SHA-256 of the deterministic outputs of a simulation
	// workload, "" for live ones.
	Digest string
	// LatNs holds one wall-clock latency per request of a live workload: a
	// packet_in → flow_mod round trip or a flow set-up. 32 bits of
	// nanoseconds keep millions of samples out of the resident set the
	// benchmark reports. A simulation's one request is the timed region itself
	// (the facade call a user waits for), so it leaves this empty.
	LatNs []uint32
	// Counts are per-layer op counts, on traced repeats.
	Counts map[string]float64
	// Err names the first correctness check that failed, "" when all hold.
	Err string
}

func (o *outcome) fail(format string, args ...any) {
	if o.Err == "" {
		o.Err = fmt.Sprintf(format, args...)
	}
}

// workload is one named set of inputs.
type workload struct {
	Name string
	Why  string
	// Live workloads run for runCtx.Dur over loopback TCP; the others
	// simulate a fixed schedule.
	Live bool
	// RepSeconds is what one repeat takes on the 2-core reference box; a run
	// of --seconds S makes round(S/RepSeconds) repeats.
	RepSeconds float64
	// FullReps is the repeat count of a full `go run ./bench`.
	FullReps int
	// start performs the set-up and returns the timed region, plus a stop
	// function that tears down and may add late check failures to the outcome.
	start func(c runCtx) (run func() (*outcome, error), stop func(*outcome), err error)
}

var workloads = []*workload{
	paperFigs, hitStream, tableChurn, fabric1k, liveCtlW1, liveCtlW32, liveSwitch,
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// sample is one repeat as the worker process reports it to its parent.
type sample struct {
	Workload   string             `json:"workload"`
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	Ops        int64              `json:"ops"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Digest     string             `json:"digest,omitempty"`
	Err        string             `json:"err,omitempty"`
	LatSamples int                `json:"lat_samples"`
	LatP50Us   float64            `json:"lat_p50_us"`
	LatP99Us   float64            `json:"lat_p99_us"`
	LatP999Us  float64            `json:"lat_p999_us"`
	CPUUs      float64            `json:"cpu_us"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	GCCycles   uint32             `json:"gc_cycles"`
	GCCPUShare float64            `json:"gc_cpu_share"`
	Counts     map[string]float64 `json:"counts,omitempty"`
}

// cpuAndRSS reads this process's user+system CPU time and peak resident set.
// The peak is VmHWM, the high-water mark of this process image: ru_maxrss
// would not do, because Linux carries the parent's peak across exec, so a
// worker would report at least whatever its parent had grown to.
func cpuAndRSS() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	rssMB = float64(ru.Maxrss) / 1024 // KiB; the fallback where /proc is missing
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					rssMB = kb / 1024
				}
			}
		}
	}
	return cpu, rssMB
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// collector since process start.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runOne executes one repeat in this process: set-up, the timed region with
// allocation counters read on both sides of it, teardown, checks. CPU time
// covers the whole repeat, set-up included — a fresh worker process has spent
// nothing else.
func runOne(w *workload, c runCtx) sample {
	s := sample{Workload: w.Name}
	cpu0, _ := cpuAndRSS()
	run, stop, err := w.start(c)
	if err != nil {
		s.Err = "set-up: " + err.Error()
		s.Attempted, s.Failed = 1, 1
		return s
	}
	if c.SetupOnly {
		s.SetupS = time.Since(c.SpawnedAt).Seconds()
		if stop != nil {
			stop(&outcome{})
		}
		return s
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	begin := time.Now()
	s.SetupS = begin.Sub(c.SpawnedAt).Seconds()
	out, err := run()
	wall := time.Since(begin)
	runtime.ReadMemStats(&m1)
	gc1 := gcCPUSeconds()
	if out == nil {
		out = &outcome{Attempted: 1}
	}
	if err != nil {
		out.fail("run: %v", err)
	}
	if stop != nil {
		stop(out)
	}
	cpu1, rss := cpuAndRSS()

	s.WallS = wall.Seconds()
	s.Ops, s.Attempted = out.Ops, out.Attempted
	if s.Attempted < 1 {
		s.Attempted = 1
	}
	s.Failed = s.Attempted - s.Ops
	if out.Err != "" {
		// A violated check voids the repeat: all of its ops count as failed.
		s.Err, s.Failed = out.Err, s.Attempted
	}
	s.Digest = out.Digest
	s.Counts = out.Counts
	if len(out.LatNs) == 0 {
		s.LatSamples = 1
		s.LatP50Us, s.LatP99Us, s.LatP999Us = float64(wall)/1e3, float64(wall)/1e3, float64(wall)/1e3
	} else {
		slices.Sort(out.LatNs)
		s.LatSamples = len(out.LatNs)
		s.LatP50Us = float64(supportedQuantile(out.LatNs, 0.50)) / 1e3
		s.LatP99Us = float64(supportedQuantile(out.LatNs, 0.99)) / 1e3
		s.LatP999Us = float64(supportedQuantile(out.LatNs, 0.999)) / 1e3
	}
	s.CPUUs = float64(cpu1-cpu0) / 1e3
	s.Mallocs = m1.Mallocs - m0.Mallocs
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.PeakRSSMB = rss
	s.GCCycles = m1.NumGC - m0.NumGC
	if cpuS := float64(cpu1-cpu0) / 1e9; cpuS > 0 {
		s.GCCPUShare = math.Min(1, (gc1-gc0)/cpuS)
	}
	return s
}

// perOp divides by the completed ops of the sample, guarding the zero a
// fully failed repeat has.
func (s sample) perOp(v float64) float64 {
	if s.Ops <= 0 {
		return v
	}
	return v / float64(s.Ops)
}

// endToEndValues maps one sample onto the end-to-end metric names.
func (s sample) endToEndValues() map[string]float64 {
	ops := 0.0
	if s.WallS > 0 {
		ops = float64(s.Ops) / s.WallS
	}
	return map[string]float64{
		"setup_s":       s.SetupS,
		"ops_per_s":     ops,
		"lat_p50_us":    s.LatP50Us,
		"lat_p99_us":    s.LatP99Us,
		"cpu_us_per_op": s.perOp(s.CPUUs),
		"allocs_per_op": s.perOp(float64(s.Mallocs)),
		"bytes_per_op":  s.perOp(float64(s.AllocBytes)),
		"peak_rss_mb":   s.PeakRSSMB,
	}
}
