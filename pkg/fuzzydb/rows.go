package fuzzydb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frel"
)

// Rows is a cursor over a query answer, the streaming alternative to the
// materialized Result: values render lazily, one row at a time, as the
// caller advances. The wire protocol's client mirrors this interface, so
// code written against Rows runs unchanged over a network connection.
//
// Usage follows database/sql:
//
//	rows, err := db.QueryRows(ctx, sql)
//	defer rows.Close()
//	for rows.Next() {
//	    var name string
//	    if err := rows.Scan(&name); err != nil { ... }
//	    fmt.Println(name, rows.Degree())
//	}
//	err = rows.Err()
//
// Both Rows and Result remain supported: Result for small answers wanted
// whole (it offers Equal, Stats, String), Rows for iteration.
type Rows struct {
	ans    *core.Answer // read in place, a row at a time
	cols   []string
	i      int // index of the current row; -1 before the first Next
	closed bool
	err    error
}

func newRows(a *core.Answer) *Rows {
	cols := make([]string, len(a.Schema.Attrs))
	for i, attr := range a.Schema.Attrs {
		cols[i] = attr.Name
	}
	return &Rows{ans: a, cols: cols, i: -1}
}

// Columns returns the answer's column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next answer row. It returns false when the rows
// are exhausted or closed; check Err afterwards.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil || r.i+1 >= r.ans.Len() {
		return false
	}
	r.i++
	return true
}

// Scan copies the current row into dest, one target per column. A target
// may be a *string (any value renders; ill-known numbers render as their
// possibility distribution, e.g. "TRAP(28,30,39,42)") or a *float64
// (crisp numbers only).
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return errClosed("rows")
	}
	if r.i < 0 || r.i >= r.ans.Len() {
		return &Error{Code: CodeExec, Msg: "Scan called without a successful Next"}
	}
	if len(dest) != len(r.cols) {
		return &Error{Code: CodeExec, Msg: fmt.Sprintf("Scan got %d targets for %d columns", len(dest), len(r.cols))}
	}
	for i, d := range dest {
		v := r.ans.Cols.Value(r.i, i)
		switch p := d.(type) {
		case *string:
			if v.Kind == frel.KindString {
				*p = v.Str
			} else {
				*p = v.Num.String()
			}
		case *float64:
			if v.Kind != frel.KindNumber || !v.Num.IsCrisp() {
				return &Error{Code: CodeExec, Msg: fmt.Sprintf("column %s is not a crisp number; scan into a *string", r.cols[i])}
			}
			lo, _ := v.Num.Core()
			*p = lo
		default:
			return &Error{Code: CodeExec, Msg: fmt.Sprintf("unsupported Scan target %T (want *string or *float64)", d)}
		}
	}
	return nil
}

// Degree returns the membership degree of the current row.
func (r *Rows) Degree() float64 {
	if r.i < 0 || r.i >= r.ans.Len() {
		return 0
	}
	return r.ans.Cols.D[r.i]
}

// Err returns the error, if any, that ended iteration early.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is idempotent; Next returns false after.
func (r *Rows) Close() error {
	r.closed = true
	return nil
}
