package core

import (
	"sort"
	"strings"

	"repro/internal/frel"
	"repro/internal/plan"
)

// Answer is the answer of a query: its distinct rows, each at its maximum
// degree (Section 2.2), in answer order, held as the columns the
// projection deduplicated them into, with their schema. The answer stays
// in that array-per-attribute form until its caller renders it: the
// embedding API renders it straight into a Result, and only callers that
// want rows of values (Eval, the shell) build a relation of it.
type Answer struct {
	Schema *frel.Schema
	Cols   *frel.Columns
}

// Len returns the number of answer rows.
func (a *Answer) Len() int { return a.Cols.Len() }

// Relation returns the answer as a relation of rows of values, nil for no
// answer (a statement that is not a query).
func (a *Answer) Relation() *frel.Relation {
	if a == nil {
		return nil
	}
	return a.Cols.Relation(a.Schema)
}

// relation returns the answer a call returned as a relation, or the
// call's error.
func relation(a *Answer, err error) (*frel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return a.Relation(), nil
}

// planAnswer packs text lines into a single-column crisp answer, the
// shape EXPLAIN output flows through the shell's relation printer with.
func planAnswer(lines []string) *Answer {
	schema := frel.NewSchema("", frel.Attribute{Name: "PLAN", Kind: frel.KindString})
	cols := frel.NewColumns(schema, len(lines))
	for _, ln := range lines {
		cols.D = append(cols.D, 1)
		cols.Str[0] = append(cols.Str[0], ln)
	}
	return &Answer{Schema: schema, Cols: cols}
}

// finalizeAnswer applies the answer-shaping clauses captured by the
// plan.Shape IR node to the answer's columns, for the engine and the
// naive evaluation alike: the WITH threshold, compacting the columns in
// place; ORDER BY (by degree or by an attribute under the engine's order
// frel.Compare, with a deterministic tie-break on the tuple key), a
// stable sort of the rows' positions gathered once; and LIMIT, a
// truncation. It returns the number of rows the threshold dropped.
//
// The columns are the answer's own: the projection's distinct rows are
// gathered from, or are, columns built for this statement (a sweep's
// output, a decoded scan), never a cached order.
func finalizeAnswer(a *Answer, q plan.Shape) (int, error) {
	pruned := a.Cols.Threshold(q.With)
	if q.OrderBy != "" {
		cmp := func(x, y int) int { return compareFloat(a.Cols.D[x], a.Cols.D[y]) }
		if !strings.EqualFold(q.OrderBy, "D") {
			col, err := a.Schema.Resolve(q.OrderBy)
			if err != nil {
				return pruned, err
			}
			cmp = func(x, y int) int { return frel.Compare(a.Cols.Value(x, col), a.Cols.Value(y, col)) }
		}
		a.Cols = sortRows(a.Cols, cmp, q.OrderDesc)
	}
	if q.HasLimit && a.Len() > q.Limit {
		a.Cols.Truncate(q.Limit)
	}
	return pruned, nil
}

// compareFloat orders two degrees.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// sortRows returns the rows of cols sorted by cmp over their positions
// (optionally reversed), ties broken by the canonical tuple key so LIMIT
// is deterministic across evaluators, equal rows in their order.
func sortRows(cols *frel.Columns, cmp func(x, y int) int, desc bool) *frel.Columns {
	perm := make([]int32, cols.Len())
	keys := make([]string, cols.Len())
	for i := range perm {
		perm[i] = int32(i)
		keys[i] = cols.Key(i)
	}
	sort.SliceStable(perm, func(x, y int) bool {
		px, py := int(perm[x]), int(perm[y])
		c := cmp(px, py)
		if desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
		return keys[px] < keys[py]
	})
	return cols.Gather(perm, nil)
}
