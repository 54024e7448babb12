package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"

	"sdnbuffer/internal/metrics"
)

// Table is a completed scenario sweep: one row of formatted cells per grid
// point, one column per Header name. WriteCSV and WriteTable render the same
// cells, so a scenario's column list is its CSV header too.
type Table struct {
	// Title is printed above the aligned columns by WriteTable (it may span
	// several lines); the CSV carries no title.
	Title  string
	Header []string
	Rows   [][]string
}

// WriteCSV renders the table as RFC 4180 CSV rows: a cell is quoted only
// when it holds a comma or a quote, as topology specs such as
// "leafspine:leaves=8,spines=4" do.
func (t *Table) WriteCSV(w io.Writer, includeHeader bool) error {
	cw := csv.NewWriter(w)
	if includeHeader {
		if err := cw.Write(t.Header); err != nil {
			return err
		}
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	return cw.Error()
}

// WriteTable renders the title and then every column, aligned, followed by a
// blank line.
func (t *Table) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintln(w, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// foldKind says how a column folds its per-run samples into a row's cell.
type foldKind uint8

const (
	// foldKey reads the cell from the row's job instead of from its runs.
	foldKey foldKind = iota
	// foldSum, foldWorst, foldWorstAbs and foldLast print integer counts
	// (unless the column is real): the sum, max(0, samples…), max(0,
	// |samples|…) and the last run's sample.
	foldSum
	foldWorst
	foldWorstAbs
	foldLast
	// foldPerRepeat is the sum divided by the group's run count (not a
	// Welford mean: the two differ in the last bits).
	foldPerRepeat
	// The Welford folds observe every sample that is not NaN, in run order.
	foldMean
	foldStdDev
	foldMin
	foldMax
)

// column is one CSV column of a scenario: a key read from the row's first
// job (fold left at its zero value, foldKey), or a per-run sample of result
// R and the fold that turns a row's samples into its cell. Counts print
// with %d; Σ/repeats, the Welford folds and real columns print with %g.
type column[J, R any] struct {
	name   string
	fold   foldKind
	key    func(J) string
	sample func(R) float64
	real   bool
}

// cell folds the samples of one row (one slice per run, indexed by column).
func (c column[J, R]) cell(job J, runs [][]float64, col int) string {
	if c.fold == foldKey {
		return c.key(job)
	}
	var acc float64
	var w metrics.Summary
	for _, run := range runs {
		v := run[col]
		switch c.fold {
		case foldSum, foldPerRepeat:
			acc += v
		case foldWorst:
			acc = max(acc, v)
		case foldWorstAbs:
			acc = max(acc, math.Abs(v))
		case foldLast:
			acc = v
		default:
			if !math.IsNaN(v) {
				w.Observe(v)
			}
		}
	}
	switch c.fold {
	case foldPerRepeat:
		acc /= float64(len(runs))
	case foldMean:
		acc = w.Mean()
	case foldStdDev:
		acc = w.StdDev()
	case foldMin:
		acc = w.Min()
	case foldMax:
		acc = w.Max()
	default:
		if !c.real {
			return strconv.FormatInt(int64(acc), 10)
		}
	}
	return strconv.FormatFloat(acc, 'g', -1, 64)
}

// sweep is one scenario: its jobs as consecutive repeat groups (one group
// per row), the cell that runs one job, and the columns a group folds into.
type sweep[J, R any] struct {
	name, title string
	groups      [][]J
	cell        func(J) (R, error)
	cols        []column[J, R]
}

// run executes every job on runCells across parallelism workers, reduces
// each run to its column samples, and folds each group into one row in job
// order, so the table is byte-identical at any parallelism.
func (s sweep[J, R]) run(parallelism int) (*Table, error) {
	type pos struct{ group, rep int }
	var jobs []pos
	for g, group := range s.groups {
		if len(group) == 0 {
			return nil, fmt.Errorf("experiments: %s: row %d has no runs (repeats must be positive)", s.name, g)
		}
		for rep := range group {
			jobs = append(jobs, pos{g, rep})
		}
	}
	samples, err := runCells(jobs, parallelism, func(p pos) ([]float64, error) {
		job := s.groups[p.group][p.rep]
		res, err := s.cell(job)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s repeat %d: %w", s.name, s.keys(job), p.rep, err)
		}
		v := make([]float64, len(s.cols))
		for i, c := range s.cols {
			if c.sample != nil {
				v[i] = c.sample(res)
			}
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Title: s.title}
	for _, c := range s.cols {
		t.Header = append(t.Header, c.name)
	}
	i := 0
	for _, group := range s.groups {
		runs := samples[i : i+len(group)]
		i += len(group)
		row := make([]string, len(s.cols))
		for ci, c := range s.cols {
			row[ci] = c.cell(group[0], runs, ci)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// keys labels a job by its key columns, for error messages.
func (s sweep[J, R]) keys(job J) string {
	var ks []string
	for _, c := range s.cols {
		if c.fold == foldKey {
			ks = append(ks, c.key(job))
		}
	}
	return strings.Join(ks, "/")
}

// repeatGroup is one row's jobs: n repeats seeded 1..n (none when n < 1).
func repeatGroup[J any](n int, job func(seed int64) J) []J {
	var g []J
	for seed := int64(1); seed <= int64(n); seed++ {
		g = append(g, job(seed))
	}
	return g
}
