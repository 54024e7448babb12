package experiments

import (
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

// TestTableMgmtSweep pins the sweep's acceptance columns: every cell closes
// its rule ledger exactly, leaks nothing, and the aggregation arm actually
// compresses while the reject arm actually rejects.
func TestTableMgmtSweep(t *testing.T) {
	res, err := RunTableMgmt(tableMgmtTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, res)
	if got, want := len(rows), 2*2; got != want { // 2 policies × 2 aggregation arms
		t.Fatalf("%d points, want %d", got, want)
	}
	var sawReject, sawAgg bool
	for _, p := range rows {
		agg := p.str("aggregation") == "true"
		label := p.str("topo") + "/" + p.str("policy") + "/" + map[bool]string{false: "flat", true: "agg"}[agg]
		if p.num("ledger_gap") != 0 {
			t.Errorf("%s: rule ledger gap %g, want 0", label, p.num("ledger_gap"))
		}
		if p.num("leaked_units") != 0 {
			t.Errorf("%s: %g leaked buffer units", label, p.num("leaked_units"))
		}
		if p.num("installs") == 0 {
			t.Errorf("%s: no rule installs", label)
		}
		if p.num("delivery_mean") <= 0.5 {
			t.Errorf("%s: delivery %v", label, p.num("delivery_mean"))
		}
		if !agg && p.str("policy") == flowtable.EvictNone.String() && p.num("rejects") > 0 {
			sawReject = true
		}
		if agg && p.num("aggregations") > 0 && p.num("rules_compressed") > 0 {
			sawAgg = true
		}
		if agg && p.num("rejects") > 0 {
			t.Errorf("%s: aggregation arm still rejected %g installs", label, p.num("rejects"))
		}
	}
	if !sawReject {
		t.Error("reject policy without aggregation never rejected — no table pressure in the grid")
	}
	if !sawAgg {
		t.Error("aggregation arm never compressed")
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
