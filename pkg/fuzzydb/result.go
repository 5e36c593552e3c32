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

func newResult(rel *frel.Relation) *Result {
	r := &Result{
		columns: make([]string, len(rel.Schema.Attrs)),
		rows:    make([][]string, 0, rel.Len()),
		degrees: make([]float64, 0, rel.Len()),
	}
	for i, a := range rel.Schema.Attrs {
		r.columns[i] = a.Name
	}
	for _, t := range rel.Tuples {
		row := make([]string, len(t.Values))
		for i, v := range t.Values {
			if v.Kind == frel.KindString {
				row[i] = v.Str
			} else {
				row[i] = v.Num.String()
			}
		}
		r.rows = append(r.rows, row)
		r.degrees = append(r.degrees, t.D)
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
