package experiments

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// tableRow is one row of a Table, read by column name.
type tableRow struct {
	t     *testing.T
	index map[string]int
	cells []string
}

// rowsOf indexes a table's rows by its header.
func rowsOf(t *testing.T, tb *Table) []tableRow {
	t.Helper()
	index := map[string]int{}
	for i, name := range tb.Header {
		index[name] = i
	}
	rows := make([]tableRow, len(tb.Rows))
	for i, cells := range tb.Rows {
		if len(cells) != len(tb.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(cells), len(tb.Header))
		}
		rows[i] = tableRow{t: t, index: index, cells: cells}
	}
	return rows
}

// str is the named cell; a missing column fails the test.
func (r tableRow) str(col string) string {
	r.t.Helper()
	i, ok := r.index[col]
	if !ok {
		r.t.Fatalf("no column %q", col)
	}
	return r.cells[i]
}

// num is the named cell as a number.
func (r tableRow) num(col string) float64 {
	r.t.Helper()
	v, err := strconv.ParseFloat(r.str(col), 64)
	if err != nil {
		r.t.Fatalf("column %q: %v", col, err)
	}
	return v
}

// TestSweepFoldKinds pins every fold over one hand-made group of runs, the
// error label, and both writers.
func TestSweepFoldKinds(t *testing.T) {
	type job struct {
		name string
		seed int64
	}
	samples := map[int64]float64{1: 3, 2: -7, 3: 2}
	same := func(v float64) float64 { return v }
	cols := []column[job, float64]{
		{name: "name", key: func(j job) string { return j.name }},
		{name: "sum", fold: foldSum, sample: same},
		{name: "worst", fold: foldWorst, sample: same},
		{name: "worst_abs", fold: foldWorstAbs, sample: same},
		{name: "last", fold: foldLast, sample: same},
		{name: "per_repeat", fold: foldPerRepeat, sample: same},
		{name: "mean", fold: foldMean, sample: same},
		{name: "stddev", fold: foldStdDev, sample: same},
		{name: "min", fold: foldMin, sample: same},
		{name: "max", fold: foldMax, sample: same},
		{name: "worst_real", fold: foldWorst, real: true, sample: func(v float64) float64 { return v / 2 }},
		{name: "nan_mean", fold: foldMean, sample: func(v float64) float64 {
			if v < 0 {
				return math.NaN() // no sample: the Welford folds skip it
			}
			return v
		}},
	}
	s := sweep[job, float64]{
		name:   "unit",
		title:  "unit sweep",
		groups: [][]job{repeatGroup(3, func(seed int64) job { return job{"a,b", seed} })},
		cell:   func(j job) (float64, error) { return samples[j.seed], nil },
		cols:   cols,
	}
	tb, err := s.run(2)
	if err != nil {
		t.Fatal(err)
	}
	// Samples 3, -7, 2: Σ/repeats and the Welford mean differ in the last bit.
	want := []string{"a,b", "-2", "3", "7", "2", "-0.6666666666666666", "-0.6666666666666667",
		"4.4969125210773475", "-7", "3", "1.5", "2.5"}
	if got := tb.Rows[0]; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("row\n got %q\nwant %q", got, want)
	}
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(csv.String(), "\n")[1]; !strings.HasPrefix(got, `"a,b",-2,3,`) {
		t.Errorf("CSV row %q: want only the comma-holding cell quoted", got)
	}
	var text bytes.Buffer
	if err := tb.WriteTable(&text); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(text.String(), "\n"); lines[0] != "unit sweep" ||
		strings.Index(lines[1], "sum") != strings.Index(lines[2], "-2") {
		t.Errorf("table not aligned:\n%s", text.String())
	}

	boom := errors.New("boom")
	s.cell = func(j job) (float64, error) {
		if j.seed == 2 {
			return 0, boom
		}
		return 0, nil
	}
	if _, err := s.run(3); !errors.Is(err, boom) || !strings.Contains(err.Error(), "unit a,b repeat 1") {
		t.Errorf("err = %v, want the failing job labelled by its keys and repeat", err)
	}
	s.groups = [][]job{repeatGroup(-1, func(seed int64) job { return job{"a", seed} })}
	if _, err := s.run(1); err == nil || !strings.Contains(err.Error(), "repeats must be positive") {
		t.Errorf("err = %v, want a row without runs refused", err)
	}
}
