package plan

import (
	"repro/internal/frel"
	"repro/internal/fsql"
)

// Fold names the input of a merge step whose tuples carry the answer's
// max-degree reduction (see JoinStep.Fold).
type Fold int

// The fold sides: none, the accumulated left side, the input joined at
// the step.
const (
	FoldNone Fold = iota
	FoldOuter
	FoldInner
)

// String names the fold side as EXPLAIN prints it.
func (f Fold) String() string {
	switch f {
	case FoldOuter:
		return "outer"
	case FoldInner:
		return "inner"
	default:
		return "none"
	}
}

// assignEmits decides what each step of the join under proj has to
// materialize. Every answer of the engine is a fuzzy set: the projection
// (or the grouping) keeps one row per distinct value combination at the
// maximum degree. A step's output row therefore only matters through the
// attributes something later reads — a later step's merge attribute or
// extra conjunct, or the projection — and through the maximum degree
// among the rows that agree on them. So a step emits only those
// attributes (Emit), and when they all come from one of its two inputs it
// folds: it emits one row per tuple of that input, at the maximum degree
// over the pairs the tuple takes part in (Fold). min distributes over max
// exactly, so degrees computed from folded rows are bit-identical.
//
// References resolve against the concatenation of the input schemas in
// join order, the schema the executor resolves them against; when one does
// not resolve there, nothing is assigned and the executor reports it.
func (j *Join) assignEmits(schemas []*frel.Schema, proj *Project) {
	full := &frel.Schema{}
	var pos []int // pos[c]: position in j.Order of the relation owning column c
	for p, r := range j.Order {
		full = full.Join(schemas[r])
		for range schemas[r].Attrs {
			pos = append(pos, p)
		}
	}
	// lastUse[c] is the last reader of column c: a step number, or
	// len(j.Steps) for the projection; -1 when nothing reads it.
	lastUse := make([]int, len(full.Attrs))
	for c := range lastUse {
		lastUse[c] = -1
	}
	use := func(ref string, by int) bool {
		c, err := full.Resolve(ref)
		if err != nil {
			return false
		}
		if by > lastUse[c] {
			lastUse[c] = by
		}
		return true
	}
	for _, it := range proj.Items {
		if !use(it.Ref, len(j.Steps)) {
			return
		}
	}
	for _, ref := range proj.GroupBy {
		if !use(ref, len(j.Steps)) {
			return
		}
	}
	for k, step := range j.Steps {
		if step.MergePred >= 0 && !use(step.LeftAttr, k) {
			return
		}
		for _, pi := range step.Extras {
			pr := j.PairPreds[pi].Pred
			for _, opd := range []fsql.Operand{pr.Left, pr.Right} {
				if opd.Kind == fsql.OpdRef && !use(opd.Ref, k) {
					return
				}
			}
		}
	}
	for k := range j.Steps {
		step := &j.Steps[k]
		step.Emit = []string{}
		outer, inner := false, false
		for c, a := range full.Attrs {
			if pos[c] > k+1 || lastUse[c] <= k {
				continue
			}
			step.Emit = append(step.Emit, a.Name)
			if pos[c] == k+1 {
				inner = true
			} else {
				outer = true
			}
		}
		switch {
		case !inner:
			step.Fold = FoldOuter
		case !outer:
			step.Fold = FoldInner
		}
	}
}
