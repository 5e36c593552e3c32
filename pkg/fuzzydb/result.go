package fuzzydb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/core"
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

// newResult renders the answer's columns in one pass, column by column.
// Every cell of every row is one string of one flat cell slice; a string
// value is the cell itself, and a number is rendered into a byte arena,
// never written again, that its cell's string reads in place. The arena
// is sized for integer keys and extended by a new chunk when a cell might
// not fit, so the answer costs a fixed number of allocations, not one per
// cell and row. The degrees are the answer's own column, kept as it is
// unless it has room for many more.
func newResult(a *core.Answer) *Result {
	cols := a.Cols
	width, n := len(a.Schema.Attrs), a.Len()
	r := &Result{
		columns: make([]string, width),
		cells:   make([]string, n*width),
		degrees: cols.D,
	}
	if cap(r.degrees) > 2*n {
		// A projection presized for its input: keep no spare room alive.
		r.degrees = slices.Clone(r.degrees)
	}
	for i, attr := range a.Schema.Attrs {
		r.columns[i] = attr.Name
	}
	var arena []byte
	for j := range width {
		if str := cols.Str[j]; str != nil {
			for i, v := range str {
				r.cells[i*width+j] = v
			}
			continue
		}
		for i, v := range cols.Num[j] {
			if cap(arena)-len(arena) < maxNumberText {
				arena = make([]byte, 0, max(8*((width-j)*n-i), 4*maxNumberText))
			}
			start := len(arena)
			arena = v.AppendTo(arena)
			r.cells[i*width+j] = unsafe.String(&arena[start], len(arena)-start)
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
