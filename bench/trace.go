package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The traced run of a workload measures nothing end to end. It (1) repeats
// the workload once with the layers' counters read afterwards, (2) runs every
// layer driver, each inside a span, (3) probes the live floor (responder) and
// the live server at both windows, and (4) multiplies counts by driver
// timings into a table that says where the run's time went, with
// testbed.unattributed_share closing the sum to 1. Spans are recorded here,
// around the calls into each layer, kept in memory, and written as a Chrome
// trace when the run ends; spans inside the program are a later issue.

type span struct {
	Name    string
	Parent  string
	StartUs float64
	DurUs   float64
	Count   int64
}

type tracer struct {
	t0    time.Time
	spans []span
}

// do runs fn inside a span; fn reports how many ops it covered.
func (t *tracer) do(name, parent string, fn func() int64) {
	begin := time.Now()
	count := fn()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent,
		StartUs: float64(begin.Sub(t.t0)) / 1e3, DurUs: float64(time.Since(begin)) / 1e3,
		Count: count,
	})
}

// write dumps the spans in Chrome trace_event format (chrome://tracing,
// Perfetto).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Cat: cat, Ph: "X", Ts: s.StartUs, Dur: s.DurUs, Pid: 1, Tid: 1,
			Args: map[string]any{"parent": s.Parent, "count": s.Count},
		})
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceResult is what a traced run adds to a workload's result.
type traceResult struct {
	Layers map[string]float64
	Table  string
	Errors []string
}

// row is one line of the attribution table: ops of a layer times the
// driver's cost of one.
type row struct {
	Layer string
	Ops   float64
	NsOp  float64
}

func (r row) busyS() float64 { return r.Ops * r.NsOp / 1e9 }

// attribution builds the rows from the counted run. Rows are disjoint by
// construction: switchd.frame_hit covers its parse and lookup, the kernel
// row is heap and dispatch cost only (empty closures), and a link's send is
// charged net of the one kernel event it schedules.
func attribution(w *workload, counts, l map[string]float64) []row {
	pi, fm, po := counts["openflow.packet_ins"], counts["openflow.flow_mods"], counts["openflow.packet_outs"]
	hits := counts["flowtable.hits"]
	misses := counts["flowtable.lookups"] - hits
	codec := row{Layer: "openflow encode+decode", Ops: pi + fm + po}
	if codec.Ops > 0 {
		codec.NsOp = (pi*(l["openflow.encode_packet_in_ns"]+l["openflow.decode_packet_in_ns"]) +
			fm*(l["openflow.encode_flow_mod_ns"]+l["openflow.decode_flow_mod_ns"]) +
			po*(l["openflow.encode_packet_out_ns"]+l["openflow.decode_packet_out_ns"])) / codec.Ops
	}
	app := row{"controller.app", pi, l["controller.app_ns"]}
	if w == fabric1k {
		app = row{"topo.path_install", pi, l["topo.path_install_ns"]}
	}
	datapath := []row{
		{"switchd.frame_hit (parse, lookup, actions)", hits, l["switchd.frame_hit_ns"]},
		{"switchd.frame_miss (parse, lookup, core)", misses, l["switchd.frame_miss_ns"]},
		{"switchd.flow_mod (insert)", fm, l["switchd.flow_mod_ns"]},
		{"switchd.packet_out (core release)", po, l["switchd.packet_out_ns"]},
	}
	switch {
	case w == liveSwitch:
		// The agent re-arms its timer, scanning the table for the next
		// expiry, once per injected frame and once per control message.
		rows := append(datapath,
			row{"flowtable.next_expiry (agent re-arm)", counts["frames"] + fm + po, l["flowtable.next_expiry_ns"]},
			codec, app)
		return rows
	case w.Live:
		return []row{
			{"openflow.read_message", counts["controller.msgs_in"], l["openflow.read_message_ns"]},
			{"openflow encode (flow_mod, packet_out)", fm + po,
				(l["openflow.encode_flow_mod_ns"] + l["openflow.encode_packet_out_ns"]) / 2},
			app,
		}
	}
	fire := l["sim.schedule_fire_d16k_ns"] // every emission is scheduled up front
	if w == paperFigs {
		fire = l["sim.schedule_fire_d1k_ns"]
	}
	rows := []row{
		{"pktgen.build", counts["frames"], l["pktgen.build_ns_per_frame"]},
		{"sim kernel (schedule+fire)", counts["sim.events"], fire},
		{"netem.link_send (net of its event)", counts["netem.sends"],
			math.Max(0, l["netem.link_send_ns"]-l["sim.schedule_fire_d64_ns"])},
	}
	return append(append(rows, datapath...), codec, app)
}

// traceWorkload is the traced run. e2eOps is the untraced median ops_per_s
// when the caller has one (a full run), 0 otherwise.
func traceWorkload(w *workload, o runOpts, e2eOps float64) (*traceResult, error) {
	tr := &tracer{t0: time.Now()}
	res := &traceResult{Layers: map[string]float64{}}
	l := res.Layers
	fail := func(format string, args ...any) { res.Errors = append(res.Errors, fmt.Sprintf(format, args...)) }
	root := "workload." + w.Name
	_, dur := o.plan(w)
	budget, probeDur := 100*time.Millisecond, time.Second
	fabricSpec := fabric1kSim.fabric
	if o.Quick {
		budget, probeDur, fabricSpec = time.Millisecond, 30*time.Millisecond, fabric1kSim.quickFabric
	}

	// (1) The workload once more, counters read afterwards.
	var cs sample
	var err error
	tr.do("e2e."+w.Name, root, func() int64 {
		cs, err = repeat(w, runCtx{Seed: o.Seed, Dur: dur, Quick: o.Quick, Counts: true}, o.Quick)
		return cs.Ops
	})
	if err != nil {
		return nil, err
	}
	if cs.Err != "" {
		fail("traced repeat: %s", cs.Err)
	}
	if msg := goldenMismatch(w, o, cs.Digest); msg != "" {
		fail("traced repeat: %s: layer assembly and facade disagree", msg)
	}

	// (2) One driver per layer metric.
	fx, err := newFixtures()
	if err != nil {
		return nil, err
	}
	for _, d := range layerDrivers(fx, fabricSpec) {
		tr.do(d.metric, root, func() int64 {
			v, ops, derr := d.run(budget)
			if derr != nil {
				fail("%s: %v", d.metric, derr)
			}
			l[d.metric] = v
			return ops
		})
	}
	tr.do("topo+testbed.build", root, func() int64 {
		topoS, tbS, berr := buildTimes(fabricSpec)
		if berr != nil {
			fail("fabric build: %v", berr)
		}
		l["topo.build_s"], l["testbed.build_s"] = topoS, tbS
		return 1
	})

	// (3) The live floor and the live server, explained against each other.
	tr.do("env.loopback_rtt", root, func() int64 {
		_, p50, perr := probeGenerator(fx, 1, probeDur/2, o.Seed)
		if perr != nil {
			fail("%v", perr)
		}
		l["env.loopback_rtt_us"] = p50
		return 1
	})
	tr.do("env.gen_ceiling", root, func() int64 {
		ops, _, perr := probeGenerator(fx, 32, probeDur/2, o.Seed)
		if perr != nil {
			fail("%v", perr)
		}
		l["env.gen_ceiling_per_s"] = ops
		return 1
	})
	probe := func(pw *workload) sample {
		if pw == w {
			return cs
		}
		var s sample
		tr.do("probe."+pw.Name, root, func() int64 {
			var perr error
			s, perr = repeat(pw, runCtx{Seed: o.Seed, Dur: probeDur, Quick: o.Quick}, o.Quick)
			if perr != nil {
				fail("probe %s: %v", pw.Name, perr)
			} else if s.Err != "" {
				fail("probe %s: %s", pw.Name, s.Err)
			}
			return s.Ops
		})
		return s
	}
	w1, w32 := probe(liveCtlW1), probe(liveCtlW32)
	// What the server adds to an unloaded round trip beyond the bare
	// loopback exchange and the work the codec and app drivers account for:
	// queueing, goroutine hand-offs, its share of the syscalls.
	l["controller.server_overhead_us"] = w1.LatP50Us - l["env.loopback_rtt_us"] -
		(l["openflow.decode_packet_in_ns"]+l["controller.app_ns"]+
			l["openflow.encode_flow_mod_ns"]+l["openflow.encode_packet_out_ns"])/1e3
	// Saturation predicted from the unloaded service time (single-node
	// OpenFlow queueing models: capacity = servers / service time). The
	// service time is the process CPU per round trip at window 1 — generator
	// included, since it shares the cores. Observed above predicted is what
	// write batching buys under load.
	if cpu := w1.perOp(w1.CPUUs); cpu > 0 {
		l["controller.predicted_sat_per_s"] = float64(runtime.NumCPU()) * 1e6 / cpu
	}
	if w32.WallS > 0 {
		l["controller.observed_sat_per_s"] = float64(w32.Ops) / w32.WallS
	}

	// Counts of the traced repeat, under their metric names.
	for _, m := range perLayer {
		if v, ok := cs.Counts[m.Name]; ok {
			l[m.Name] = v
		}
	}
	if lookups := cs.Counts["flowtable.lookups"]; lookups > 0 {
		l["flowtable.hit_ratio"] = cs.Counts["flowtable.hits"] / lookups
	}
	if cs.WallS > 0 {
		l["sim.events_per_s"] = cs.Counts["sim.events"] / cs.WallS
		l["trace.ops_per_s"] = float64(cs.Ops) / cs.WallS
	}
	l["testbed.run_s"] = cs.WallS
	l["runtime.gc_cycles"] = float64(cs.GCCycles)
	l["runtime.gc_cpu_share"] = cs.GCCPUShare
	if cs.LatSamples >= 10000 {
		l["controller.lat_p999_us"] = cs.LatP999Us
	}

	// (4) Where the time went. Simulations are single-threaded, so their
	// basis is wall time; live runs spread over the cores, so theirs is the
	// process's CPU time.
	basis, basisName := cs.WallS, "wall"
	if w.Live {
		basis, basisName = cs.CPUUs/1e6, "CPU"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: per-layer attribution of the traced repeat (%d ops, %.3f s %s)\n", w.Name, cs.Ops, basis, basisName)
	fmt.Fprintf(&sb, "  %-46s %12s %10s %9s %7s\n", "layer", "ops", "ns/op", "busy s", "share")
	attributed := 0.0
	for _, r := range attribution(w, cs.Counts, l) {
		share := 0.0
		if basis > 0 {
			share = r.busyS() / basis
		}
		attributed += share
		fmt.Fprintf(&sb, "  %-46s %12.0f %10.1f %9.4f %6.1f%%\n", r.Layer, r.Ops, r.NsOp, r.busyS(), share*100)
	}
	l["testbed.unattributed_share"] = 1 - attributed
	fmt.Fprintf(&sb, "  %-46s %12s %10s %9.4f %6.1f%%\n", "unattributed (oracles, closures, GC, sockets)", "", "",
		(1-attributed)*basis, (1-attributed)*100)
	fmt.Fprintf(&sb, "  controller: predicted saturation %.0f/s, observed %.0f/s at window 32, ratio %.2f; server overhead %.1f us over a %.1f us loopback exchange\n",
		l["controller.predicted_sat_per_s"], l["controller.observed_sat_per_s"],
		l["controller.observed_sat_per_s"]/math.Max(1, l["controller.predicted_sat_per_s"]),
		l["controller.server_overhead_us"], l["env.loopback_rtt_us"])
	if e2eOps > 0 {
		fmt.Fprintf(&sb, "  tracing overhead: traced %.0f op/s vs untraced median %.0f op/s (%+.1f%%)\n",
			l["trace.ops_per_s"], e2eOps, (l["trace.ops_per_s"]/e2eOps-1)*100)
	}
	res.Table = sb.String()

	tr.spans = append(tr.spans, span{Name: root, DurUs: float64(time.Since(tr.t0)) / 1e3, Count: cs.Ops})
	if err := tr.write(filepath.Join(o.OutDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	for name, v := range l {
		if !finite(v) {
			fail("%s is not finite", name)
			l[name] = 0
		}
	}
	return res, nil
}

// print writes every per-layer metric by name, the attribution table, and
// whatever the traced run found wrong.
func (r *traceResult) print(out io.Writer) {
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
	fmt.Fprint(out, r.Table)
	for _, e := range r.Errors {
		fmt.Fprintln(out, "  CHECK FAILED:", e)
	}
}
