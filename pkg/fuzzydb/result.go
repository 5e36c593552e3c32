package fuzzydb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/frel"
)

// Result is a query answer: a fuzzy relation rendered as rows of strings,
// each with the degree to which the tuple satisfies the query. Results
// are self-contained — detached from the database they came from.
type Result struct {
	columns []string
	rows    [][]string
	degrees []float64
	stats   *QueryStats
}

// newResult renders rel. Every cell of every row is one string of one
// cell slice, and the numbers are rendered into one byte arena that
// becomes one string the cells slice: the answer costs a fixed number of
// allocations, not one per cell and row.
func newResult(rel *frel.Relation) *Result {
	width, n := len(rel.Schema.Attrs), rel.Len()
	r := &Result{
		columns: make([]string, width),
		rows:    make([][]string, n),
		degrees: make([]float64, n),
	}
	for i, a := range rel.Schema.Attrs {
		r.columns[i] = a.Name
	}
	cells := make([]string, n*width)
	ends := make([]int, n*width) // the arena offset each cell's number ends at
	var arena []byte
	for i, t := range rel.Tuples {
		for j, v := range t.Values {
			if v.Kind != frel.KindString {
				if arena == nil {
					arena = make([]byte, 0, 16*len(cells))
				}
				arena = v.Num.AppendTo(arena)
			}
			ends[i*width+j] = len(arena)
		}
		r.degrees[i] = t.D
	}
	text, start := string(arena), 0
	for i, t := range rel.Tuples {
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for j, v := range t.Values {
			end := ends[i*width+j]
			if v.Kind == frel.KindString {
				row[j] = v.Str
			} else {
				row[j] = text[start:end]
			}
			start = end
		}
		r.rows[i] = row
	}
	return r
}

// Columns returns the answer's column names.
func (r *Result) Columns() []string { return append([]string(nil), r.columns...) }

// Len returns the number of answer tuples.
func (r *Result) Len() int { return len(r.rows) }

// Row returns the i-th answer tuple's values, rendered as strings
// (ill-known numbers render as their possibility distributions, e.g.
// "TRAP(28,30,39,42)").
func (r *Result) Row(i int) []string { return append([]string(nil), r.rows[i]...) }

// Degree returns the membership degree of the i-th answer tuple.
func (r *Result) Degree(i int) float64 { return r.degrees[i] }

// Stats returns the runtime statistics collected for this result, or nil
// unless the result came from ExplainAnalyze.
func (r *Result) Stats() *QueryStats { return r.stats }

// Equal reports whether two results hold the same rows with degrees equal
// to within tol, regardless of row order: the query equivalence of the
// paper's theorems, so an answer can be checked against QueryNaive's.
func (r *Result) Equal(other *Result, tol float64) bool {
	if other == nil || len(r.rows) != len(other.rows) || len(r.columns) != len(other.columns) {
		return false
	}
	degrees := make(map[string]float64, len(r.rows))
	for i, row := range r.rows {
		degrees[strings.Join(row, "\x00")] = r.degrees[i]
	}
	for i, row := range other.rows {
		d, ok := degrees[strings.Join(row, "\x00")]
		if !ok || math.Abs(d-other.degrees[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the result as a small table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.columns, "  "))
	b.WriteString("  D\n")
	for i, row := range r.rows {
		b.WriteString(strings.Join(row, "  "))
		fmt.Fprintf(&b, "  %.4g\n", r.degrees[i])
	}
	fmt.Fprintf(&b, "(%d tuples)", len(r.rows))
	return b.String()
}
