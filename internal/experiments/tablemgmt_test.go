package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sdnbuffer/internal/flowtable"
)

// tableMgmtTestOptions is a reduced grid that still crosses eviction
// policies with aggregation on and off under genuine table pressure.
func tableMgmtTestOptions() TableMgmtOptions {
	return TableMgmtOptions{
		Topos:       []string{"line:switches=3"},
		Capacities:  []int{8},
		Policies:    []flowtable.EvictionPolicy{flowtable.EvictNone, flowtable.EvictLRU},
		Aggregation: []bool{false, true},
		Mechanisms:  []Series{SeriesPacketGranularity},
		Flows:       16,
		PktsPerFlow: 4,
		Repeats:     1,
	}
}

func tableMgmtCSV(t *testing.T, opts TableMgmtOptions) string {
	t.Helper()
	res, err := RunTableMgmt(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTableMgmtSweep pins the sweep's acceptance columns: every cell closes
// its rule ledger exactly, leaks nothing, and the aggregation arm actually
// compresses while the reject arm actually rejects.
func TestTableMgmtSweep(t *testing.T) {
	res, err := RunTableMgmt(tableMgmtTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Points), 2*2; got != want { // 2 policies × 2 aggregation arms
		t.Fatalf("%d points, want %d", got, want)
	}
	var sawReject, sawAgg bool
	for _, p := range res.Points {
		label := p.Topo + "/" + p.Policy.String() + "/" + map[bool]string{false: "flat", true: "agg"}[p.Aggregation]
		if p.LedgerGap != 0 {
			t.Errorf("%s: rule ledger gap %d, want 0", label, p.LedgerGap)
		}
		if p.LeakedUnits != 0 {
			t.Errorf("%s: %d leaked buffer units", label, p.LeakedUnits)
		}
		if p.Installs == 0 {
			t.Errorf("%s: no rule installs", label)
		}
		if p.Delivery.Mean() <= 0.5 {
			t.Errorf("%s: delivery %v", label, p.Delivery.Mean())
		}
		if !p.Aggregation && p.Policy == flowtable.EvictNone && p.Rejects > 0 {
			sawReject = true
		}
		if p.Aggregation && p.Aggregations > 0 && p.RulesCompressed > 0 {
			sawAgg = true
		}
		if p.Aggregation && p.Rejects > 0 {
			t.Errorf("%s: aggregation arm still rejected %d installs", label, p.Rejects)
		}
	}
	if !sawReject {
		t.Error("reject policy without aggregation never rejected — no table pressure in the grid")
	}
	if !sawAgg {
		t.Error("aggregation arm never compressed")
	}
}

// TestTableMgmtDeterministic pins the sweep's reproducibility contract: the
// CSV is byte-identical when the grid fans across workers.
func TestTableMgmtDeterministic(t *testing.T) {
	base := tableMgmtTestOptions()
	base.Parallelism = 1
	want := tableMgmtCSV(t, base)
	if !strings.Contains(want, "line:switches=3") {
		t.Fatalf("csv missing rows:\n%s", want)
	}

	fanned := tableMgmtTestOptions()
	fanned.Parallelism = 4
	if got := tableMgmtCSV(t, fanned); got != want {
		t.Errorf("parallel sweep CSV differs:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestTableMgmtValidation pins input validation.
func TestTableMgmtValidation(t *testing.T) {
	opts := tableMgmtTestOptions()
	opts.Topos = []string{"klein-bottle:4"}
	if _, err := RunTableMgmt(opts); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
