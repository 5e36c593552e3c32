// The extended merge-join (Section 3; see mergejoin.go for the range scan
// and sweep.go for the shared flat-column sweep). Each morsel runs a fused
// two-cursor loop directly over both inputs' columns — no window staging,
// no per-pair virtual calls, counters in locals — and concatenating the
// morsel outputs in order is the serial join's answer tuple for tuple.
//
// The answer's reduction folds into the sweep. The paper's unnested
// queries need one degree per outer tuple — projection with duplicate
// elimination is a max reduction over the pairs — so when everything the
// plan still reads of the join's rows comes from one input, the join keeps
// best = max d per tuple of that input while it enumerates the pairs and
// emits at most one row per such tuple, holding only the columns read.
// min distributes over max exactly (both select one of their arguments),
// so folding at any step of a chain leaves the answer's degrees
// bit-identical, and the join's output is O(|input|) instead of
// O(|input| · fanout). For the same reason a folded pair whose degree
// before the residual conjuncts is not above its tuple's best so far
// skips them: min can only lower it, and max ignores a smaller argument.
//
// Morsels: a skew range with a huge Rng would idle every other worker for
// its whole duration if the inputs were cut into a few partitions up
// front. Morsels are much smaller, and a worker that finishes one
// immediately pulls the next, so the tail of a skewed join is the largest
// single atomic range. Serial runs (Workers <= 1) use one morsel: the
// scheduler adds nothing when there is nobody to share with.
package exec

import (
	"context"
	"fmt"
	"math"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// Fold selects the input of a kernel merge-join whose tuples carry the
// max-degree reduction of the pairs they take part in.
type Fold int

// The fold sides. FoldNone emits one row per joining pair.
const (
	FoldNone Fold = iota
	FoldOuter
	FoldInner
)

// KernelMergeJoin is the extended merge-join on the fuzzy band condition
// outer.OuterAttr ≈ inner.InnerAttr (Section 3 relates the fuzzy equi-join
// to band joins): tuples join to the degree their values are approximately
// equal under Tol (see fuzzy.ApproxEq; Crisp(0) is exact fuzzy equality),
// further capped by both tuple degrees and by the residual conjuncts
// compiled into Extra (e.g. the second join predicate of an unnested type
// J query). Both inputs must already be sorted on their join attribute by
// the Definition 3.1 order (an extsort.Order). Without join attributes the
// join sweeps the whole-inner window (sweep.go): every pair is a candidate
// and Extra holds every conjunct.
type KernelMergeJoin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Extra                *kernel.Program // nil or empty: no residual conjuncts
	Tol                  fuzzy.Trapezoid
	Workers              int

	// Ctx is the statement's context, polled by the running sweep (nil:
	// never cancelled).
	Ctx context.Context

	// Floor is the least degree the plan still needs of a row (0: every
	// positive degree; see plan's push-threshold rule). With a floor the
	// sweep skips an outer tuple whose own degree is below it, skips a
	// pair whose inner degree is below it before the band equality, and
	// skips Extra on a pair already below it.
	Floor float64

	// Stats receives the join's work: Comparisons counts the
	// support-intersecting pairs of every outer tuple the floor does not
	// skip (dangling window tuples are not compared), each such Rng(r)
	// scan length is observed, and DegreeEvals counts one evaluation per
	// pair for the band equality (none for a pair whose inner degree is
	// below the floor, none in a whole window) plus one per call of Extra.
	Stats *OpStats

	schema *frel.Schema
	oi, ii int // join attribute indexes; −1: the whole-inner window

	emit     []int // columns of the outer ++ inner row to materialize; nil: all
	fold     Fold
	foldEmit []int // emit as columns of the folded input's own rows
}

// NewKernelMergeJoin builds a band merge-join counting into st, with the
// given worker count (0 = GOMAXPROCS). Empty join attributes select the
// whole-inner window.
func NewKernelMergeJoin(outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra *kernel.Program, st *OpStats, workers int) (*KernelMergeJoin, error) {
	oi, ii, err := windowAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if !tol.Valid() {
		return nil, fmt.Errorf("exec: invalid band tolerance %v", tol)
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	return &KernelMergeJoin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Extra: extra, Tol: tol, Workers: workers, Stats: st,
		schema: outer.Schema().Join(inner.Schema()),
		oi:     oi, ii: ii,
	}, nil
}

// EmitColumns restricts the join's output to the given columns of the
// concatenated outer ++ inner row, in the given order, and selects the
// fold. A fold requires every emitted column to come from the folded
// input: the join then emits one row per tuple of that input that joins
// at all, in the input's order, at the maximum degree over its pairs.
func (j *KernelMergeJoin) EmitColumns(emit []int, fold Fold) error {
	full := j.Outer.Schema().Join(j.Inner.Schema())
	nOuter := len(j.Outer.Schema().Attrs)
	schema := &frel.Schema{}
	for _, c := range emit {
		if c < 0 || c >= len(full.Attrs) {
			return fmt.Errorf("exec: merge-join emit column %d out of range", c)
		}
		if fold == FoldOuter && c >= nOuter || fold == FoldInner && c < nOuter {
			return fmt.Errorf("exec: merge-join folds onto one input but emits %s of the other", full.Attrs[c].Name)
		}
		schema.Attrs = append(schema.Attrs, full.Attrs[c])
	}
	j.schema, j.fold = schema, fold
	j.emit = append([]int{}, emit...)
	j.foldEmit = append([]int{}, emit...)
	if fold == FoldInner {
		for i := range j.foldEmit {
			j.foldEmit[i] -= nOuter
		}
	}
	return nil
}

// Schema implements Source.
func (j *KernelMergeJoin) Schema() *frel.Schema { return j.schema }

// Open implements Source. The whole join runs eagerly: morsels are pulled
// off the shared queue by the worker pool and their outputs are replayed
// in morsel order, which is the serial emission order.
func (j *KernelMergeJoin) Open() (BatchIterator, error) {
	in, err := collectFlat("merge-join", j.Outer, j.Inner, j.oi, j.ii, j.Tol, j.Workers, j.Stats)
	if err != nil {
		return nil, err
	}
	var extra *kernel.Bound
	if j.Extra != nil && j.Extra.Len() > 0 {
		if extra, err = j.Extra.Bind(in.outer, in.inner); err != nil {
			return nil, err
		}
	}
	// best[k] is the folded degree of tuple k of the inner input. Morsels
	// own disjoint spans of it. FoldInner is race-free only because of
	// that: every outer tuple of a whole window sees every inner tuple, so
	// a whole window is never cut into morsels.
	var best []float64
	var emit []emitted
	switch j.fold {
	case FoldOuter:
		emit = emitColumns(in.outer, j.foldEmit)
	case FoldInner:
		best = make([]float64, in.inner.Len())
		emit = emitColumns(in.inner, j.foldEmit)
	default:
		emit = j.pairColumns(in)
	}
	return in.run(j.Workers, emit, func(p partRange) (selection, error) { return j.sweep(in, extra, p, best) })
}

// pairColumns lists the output columns of an unfolded join: the columns
// EmitColumns selected of the outer ++ inner row, or all of them.
func (j *KernelMergeJoin) pairColumns(in *flatInputs) []emitted {
	nOuter := len(in.outer.Num)
	if j.emit == nil {
		emit := emitColumns(in.outer, nil)
		for c := range in.inner.Num {
			emit = append(emit, emitted{src: in.inner, col: c, second: true})
		}
		return emit
	}
	emit := make([]emitted, len(j.emit))
	for i, c := range j.emit {
		if c < nOuter {
			emit[i] = emitted{src: in.outer, col: c}
		} else {
			emit[i] = emitted{src: in.inner, col: c - nOuter, second: true}
		}
	}
	return emit
}

// sweep joins one morsel.
func (j *KernelMergeJoin) sweep(in *flatInputs, extra *kernel.Bound, p partRange, best []float64) (selection, error) {
	outer, inner, oRng, iRng := in.outer, in.inner, in.oRng, in.iRng
	f := j.Floor
	ranged := j.oi >= 0
	tolZero := j.Tol == (fuzzy.Trapezoid{})
	loc := newBatchLocals(j.Ctx)
	var sel selection
	if j.fold == FoldOuter {
		sel = newSelection(p.oHi - p.oLo)
	}
	win := keyWindow{start: p.iLo, end: p.iLo}
	for o := p.oLo; o < p.oHi; o++ {
		oD := outer.D[o]
		if oD < f {
			continue // every pair of this tuple is below the floor
		}
		lX := oRng[o]
		lo, hi := lX.Support()
		win.slide(iRng, p.iHi, lo, hi, j.Tol)
		var rng int64
		var bestO float64
		for k := win.start; k < win.end; k++ {
			// Support pretest on the range column, bit-identical to
			// lX.Intersects(Add(s, Tol)).
			if !(lo <= iRng[k].D+j.Tol.D && iRng[k].A+j.Tol.A <= hi) {
				continue // dangling tuple inside the range
			}
			rng++
			iD := inner.D[k]
			if iD < f {
				continue
			}
			d := oD
			if ranged {
				loc.deg++
				sX := iRng[k]
				if !tolZero {
					sX = fuzzy.Add(sX, j.Tol)
				}
				d = fuzzy.Eq(lX, sX)
				if oD < d {
					d = oD
				}
			}
			if iD < d {
				d = iD
			}
			if extra != nil {
				// The residual can only lower d: it is skipped when d is
				// already below the floor or, folding, not above the
				// folded tuple's best (max would ignore the pair).
				lim := f
				switch j.fold {
				case FoldOuter:
					lim = max(lim, math.Nextafter(bestO, 2))
				case FoldInner:
					lim = max(lim, math.Nextafter(best[k], 2))
				}
				if d <= 0 || d < lim {
					continue
				}
				loc.deg++
				if g := extra.EvalAnd(o, k, lim); g < d {
					d = g
				}
			}
			if d <= 0 || d < f {
				continue
			}
			switch j.fold {
			case FoldOuter:
				if d > bestO {
					bestO = d
				}
				continue
			case FoldInner:
				if d > best[k] {
					best[k] = d
				}
				continue
			}
			sel.pos = append(sel.pos, int32(o))
			sel.pos2 = append(sel.pos2, int32(k))
			sel.d = append(sel.d, d)
		}
		if j.fold == FoldOuter {
			sel.keep(o, bestO, f)
		}
		loc.observeRng(rng)
		if err := loc.poll(); err != nil {
			return selection{}, err
		}
	}
	if j.fold == FoldInner {
		n := 0
		for _, d := range best[p.iLo:p.iHi] {
			if d > 0 && d >= f {
				n++
			}
		}
		sel = newSelection(n)
		for k := p.iLo; k < p.iHi; k++ {
			sel.keep(k, best[k], f)
		}
	}
	loc.flush(j.Stats)
	return sel, nil
}
