package fuzzydb

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"repro/internal/frel"
)

// Result is a query answer: a fuzzy relation rendered as rows of strings,
// each with the degree to which the tuple satisfies the query. Results
// are self-contained — detached from the database they came from.
type Result struct {
	columns []string
	cells   []string // row i is cells[i*len(columns) : (i+1)*len(columns)]
	degrees []float64
	stats   *QueryStats
}

// maxNumberText bounds the text of one number: four corners of 24 bytes
// at most, TRAP( ) and three commas.
const maxNumberText = 128

// newResult renders rel in one pass. Every cell of every row is one string
// of one flat cell slice; a string value is the cell itself, and a number
// is rendered into a byte arena, never written again, that its cell's
// string reads in place. The arena is sized for integer keys and extended
// by a new chunk when a cell might not fit, so the answer costs a fixed
// number of allocations, not one per cell and row.
func newResult(rel *frel.Relation) *Result {
	width, n := len(rel.Schema.Attrs), rel.Len()
	r := &Result{
		columns: make([]string, width),
		cells:   make([]string, n*width),
		degrees: make([]float64, n),
	}
	for i, a := range rel.Schema.Attrs {
		r.columns[i] = a.Name
	}
	var arena []byte
	for i, t := range rel.Tuples {
		r.degrees[i] = t.D
		row := r.cells[i*width : (i+1)*width]
		for j, v := range t.Values {
			if v.Kind == frel.KindString {
				row[j] = v.Str
				continue
			}
			if cap(arena)-len(arena) < maxNumberText {
				arena = make([]byte, 0, max(8*(len(r.cells)-i*width), 4*maxNumberText))
			}
			start := len(arena)
			arena = v.Num.AppendTo(arena)
			row[j] = unsafe.String(&arena[start], len(arena)-start)
		}
	}
	return r
}

// Columns returns the answer's column names.
func (r *Result) Columns() []string { return append([]string(nil), r.columns...) }

// Len returns the number of answer tuples.
func (r *Result) Len() int { return len(r.degrees) }

// Row returns the i-th answer tuple's values, rendered as strings
// (ill-known numbers render as their possibility distributions, e.g.
// "TRAP(28,30,39,42)").
func (r *Result) Row(i int) []string { return append([]string(nil), r.row(i)...) }

// row returns the cells of row i, the result's own.
func (r *Result) row(i int) []string {
	w := len(r.columns)
	return r.cells[i*w : (i+1)*w : (i+1)*w]
}

// Degree returns the membership degree of the i-th answer tuple.
func (r *Result) Degree(i int) float64 { return r.degrees[i] }

// Stats returns the runtime statistics collected for this result, or nil
// unless the result came from ExplainAnalyze.
func (r *Result) Stats() *QueryStats { return r.stats }

// Equal reports whether two results hold the same rows with degrees equal
// to within tol, regardless of row order: the query equivalence of the
// paper's theorems, so an answer can be checked against QueryNaive's.
func (r *Result) Equal(other *Result, tol float64) bool {
	if other == nil || r.Len() != other.Len() || len(r.columns) != len(other.columns) {
		return false
	}
	degrees := make(map[string]float64, r.Len())
	for i := range r.Len() {
		degrees[strings.Join(r.row(i), "\x00")] = r.degrees[i]
	}
	for i := range other.Len() {
		d, ok := degrees[strings.Join(other.row(i), "\x00")]
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
	for i := range r.Len() {
		b.WriteString(strings.Join(r.row(i), "  "))
		fmt.Fprintf(&b, "  %.4g\n", r.degrees[i])
	}
	fmt.Fprintf(&b, "(%d tuples)", r.Len())
	return b.String()
}
