package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// resultFile is what a full run writes and compare reads.
type resultFile struct {
	Env       envStamp             `json:"env"`
	Seed      int64                `json:"seed"`
	Workloads map[string]*wlResult `json:"workloads"`
}

// loadResults reads one side of a comparison: one result file, or several
// separated by commas (the runs of bench/ab.sh), whose samples are pooled in
// the order given so that sample i of one side pairs with sample i of the
// other.
func loadResults(list string) (*resultFile, error) {
	var pooled *resultFile
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if pooled == nil {
			pooled = &rf
			continue
		}
		for name, wr := range rf.Workloads {
			have := pooled.Workloads[name]
			if have == nil {
				pooled.Workloads[name] = wr
				continue
			}
			have.Correct = have.Correct && wr.Correct
			have.Attempted += wr.Attempted
			have.Failed += wr.Failed
			if have.Digest != wr.Digest {
				have.Digest = "differs between the pooled files"
			}
			for m, d := range wr.Metrics {
				if hd := have.Metrics[m]; hd != nil {
					*hd = *newDist(hd.Unit, append(hd.Samples, d.Samples...))
				}
			}
		}
	}
	return pooled, nil
}

// compare applies each end-to-end metric's bound to the medians of two
// results and demands equality of digests and exact counts. A row is
// `worse` past the bound, `unresolved` when within it but either side's
// quartile spread is wider than the bound, `ok` otherwise. With paired
// samples it also prints how often the new side won (the guide's rule for
// claiming a gain: nine pairs in ten, and a median difference beyond the
// old side's spread). It returns the number of `worse` rows.
func compare(out io.Writer, oldR, newR *resultFile) int {
	bad := 0
	fmt.Fprintf(out, "%-13s %-28s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "old", "new", "change", "iqr-old", "iqr-new", "wins", "verdict")
	for _, w := range workloads {
		o, n := oldR.Workloads[w.Name], newR.Workloads[w.Name]
		if o == nil || n == nil {
			continue
		}
		if n.Failed > o.Failed || (o.Correct && !n.Correct) {
			bad++
			fmt.Fprintf(out, "%-13s %-28s %14d %14d %53s\n", w.Name, "failed ops", o.Failed, n.Failed, "worse")
		}
		if o.Digest != n.Digest {
			bad++
			fmt.Fprintf(out, "%-13s %-28s %14.12s %14.12s %53s\n", w.Name, "digest", o.Digest, n.Digest, "worse")
		}
		for _, m := range endToEnd {
			od, nd := o.Metrics[m.Name], n.Metrics[m.Name]
			if od == nil || nd == nil {
				continue
			}
			ov, nv := m.of(od), m.of(nd)
			change := worse(m, ov, nv)
			so, sn := spread(od.Samples), spread(nd.Samples)
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				bad++
			case so > m.Bound || sn > m.Bound:
				verdict = "unresolved"
			}
			wins := ""
			if k := len(od.Samples); k == len(nd.Samples) && k > 1 {
				won := 0
				for i := range od.Samples {
					if worse(m, od.Samples[i], nd.Samples[i]) < 0 {
						won++
					}
				}
				wins = fmt.Sprintf("%d/%d", won, k)
			}
			fmt.Fprintf(out, "%-13s %-28s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %6s  %s\n",
				w.Name, m.Name+" ["+m.Unit+"]", ov, nv, -change*100*sign(m), so*100, sn*100, wins, verdict)
		}
		if w.Live || o.Layers == nil || n.Layers == nil {
			continue
		}
		for _, m := range perLayer {
			if m.Exact && o.Layers[m.Name] != n.Layers[m.Name] {
				bad++
				fmt.Fprintf(out, "%-13s %-28s %14.0f %14.0f %53s\n", w.Name, m.Name, o.Layers[m.Name], n.Layers[m.Name], "worse (count changed)")
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d rows worse\n", bad)
	}
	return bad
}

// worse reports by how much new is worse than old as a share of old, signed
// so that a positive value is a regression whichever way the metric points.
func worse(m metricDef, old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (new - old) / math.Abs(old)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// sign turns worse()'s regression-positive share back into the metric's own
// direction for printing: +5% on ops_per_s reads as faster.
func sign(m metricDef) float64 {
	if m.Better == "higher" {
		return 1
	}
	return -1
}
