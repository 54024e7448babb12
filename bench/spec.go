package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
)

// metricDef declares one metric: the name printed, its unit, which way is
// better, and — for end-to-end metrics — the share of the baseline median by
// which it may worsen before compare calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count that repeats exactly on a simulation workload;
	// compare demands equality for it there instead of applying a bound.
	Exact bool `json:"-"`
	// Lowest makes the reported value the lowest repeat, not the median.
	Lowest bool `json:"-"`
}

// of picks the value a run reports for the metric out of its repeats.
func (m metricDef) of(d *dist) float64 {
	if m.Lowest && len(d.Samples) > 0 {
		return slices.Min(d.Samples)
	}
	return d.Median
}

// runSeconds is the measuring time of one driver run (BENCHMARK.json
// run_seconds): three to six repeats, depending on the workload's repeat
// length. The acceptance driver's 158 runs then take about 2000 s of its
// 3420 s cap on the 2-core sandbox.
const runSeconds = 12

// endToEnd is what a user of the system sees. Every workload reports every
// one of them. failed_share of the issue's table is carried by the result
// line's attempted/failed keys instead: a metric that is 0 on a healthy run
// cannot carry a relative bound.
//
// Bounds are at least three times the widest quartile spread seen over ten
// runs on the 2-core sandbox (README.md, "Steadiness"): its speed wanders by
// 1 to 4 % between runs, most on live-ctl-w1, which is what sets the timing
// bounds; the allocation counts repeat to four digits.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.12},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.12},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.12},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
	// The lowest repeat: a Go heap grows in 4 MB steps whenever a collection
	// runs late, which only ever adds, and on paper-figs (11 MB, a collection
	// every 2 ms) one such step is a third of the total.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Lowest: true},
}

// perLayer lists the single-layer metrics of the traced run, named
// <package>.<what>. *_ns and *_s are driver timings, the rest are counts
// taken from the traced end-to-end run of the workload.
var perLayer = []metricDef{
	{Name: "pktgen.build_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "packet.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.serialize_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.schedule_fire_d64_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_fire_d1k_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_fire_d16k_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.resource_job_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.link_send_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.sends", Unit: "count", Better: "lower", Exact: true},
	{Name: "openflow.encode_packet_in_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.encode_packet_in_full_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.decode_packet_in_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.encode_flow_mod_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.decode_flow_mod_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.encode_packet_out_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.decode_packet_out_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.read_message_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.ctrl_msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "openflow.ctrl_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "flowtable.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.insert_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.next_expiry_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.expire_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.lookups", Unit: "count", Better: "lower", Exact: true},
	{Name: "flowtable.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "flowtable.evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.nobuffer_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "core.packet_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.flow_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.units_stored", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.rerequests", Unit: "count", Better: "lower", Exact: true},
	{Name: "switchd.frame_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "switchd.frame_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "switchd.flow_mod_ns", Unit: "ns", Better: "lower"},
	{Name: "switchd.packet_out_ns", Unit: "ns", Better: "lower"},
	{Name: "switchd.agent_inject_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "controller.app_ns", Unit: "ns", Better: "lower"},
	{Name: "controller.msgs_in", Unit: "count", Better: "lower"},
	{Name: "controller.msgs_out", Unit: "count", Better: "lower"},
	{Name: "controller.shed", Unit: "count", Better: "lower"},
	{Name: "controller.server_overhead_us", Unit: "us", Better: "lower"},
	{Name: "controller.predicted_sat_per_s", Unit: "1/s", Better: "higher"},
	{Name: "controller.observed_sat_per_s", Unit: "1/s", Better: "higher"},
	{Name: "controller.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "topo.build_s", Unit: "s", Better: "lower"},
	{Name: "topo.path_install_ns", Unit: "ns", Better: "lower"},
	{Name: "testbed.build_s", Unit: "s", Better: "lower"},
	{Name: "testbed.run_s", Unit: "s", Better: "lower"},
	{Name: "testbed.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.cells", Unit: "count", Better: "lower", Exact: true},
	{Name: "experiments.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.disabled_ns", Unit: "ns", Better: "lower"},
	{Name: "env.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "env.gen_ceiling_per_s", Unit: "1/s", Better: "higher"},
	{Name: "env.timer_resolution_us", Unit: "us", Better: "lower"},
	{Name: "trace.ops_per_s", Unit: "op/s", Better: "higher"},
}

// nameRE is the contract's shape for workload and metric names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest renders BENCHMARK.json from the tables above, so the file at the
// repo root and the program cannot drift (bench_test.go compares them).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: omitted
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %q breaks the manifest limits", w.Name)
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			return nil, fmt.Errorf("end-to-end metric %q breaks the manifest limits", m.Name)
		}
	}
	for _, m := range perLayer {
		if !nameRE.MatchString(m.Name) || m.Bound != 0 {
			return nil, fmt.Errorf("per-layer metric %q breaks the manifest limits", m.Name)
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
