package exec

import (
	"context"
	"fmt"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// The extended merge-join of Section 3: both inputs are sorted on the join
// attribute by the Definition 3.1 interval order ≼; for each outer tuple r
// only the inner tuples in Rng(r) — those whose join-value supports
// intersect r's — are examined. A start cursor advances past inner tuples
// whose support ends before r's begins (they precede every later range
// too), and the scan of the inner relation stops at the first tuple whose
// support begins after r's ends, so the inner relation is read exactly
// once. The cursor pair is keyWindow (sweep.go); the merge-join
// (kerneljoin.go), the merge anti-join below and the group-aggregate join
// (groupagg.go) all sweep with it over flat columns. Without a range
// attribute each of them sweeps the whole-inner window instead, which is
// the nested loop over the materialized inputs.

// windowAttrs resolves the range attributes of a join or anti-join: two
// empty attributes are the whole-inner window (both indexes −1), anything
// else goes through checkJoinAttrs.
func windowAttrs(outer, inner Source, outerAttr, innerAttr string) (oi, ii int, err error) {
	if outerAttr == "" && innerAttr == "" {
		return -1, -1, nil
	}
	return checkJoinAttrs(outer, inner, outerAttr, innerAttr)
}

// checkJoinAttrs validates that both join attributes resolve to numeric
// attributes and returns their indexes.
func checkJoinAttrs(outer, inner Source, outerAttr, innerAttr string) (oi, ii int, err error) {
	oi, err = outer.Schema().Resolve(outerAttr)
	if err != nil {
		return 0, 0, err
	}
	ii, err = inner.Schema().Resolve(innerAttr)
	if err != nil {
		return 0, 0, err
	}
	if outer.Schema().Attrs[oi].Kind != frel.KindNumber || inner.Schema().Attrs[ii].Kind != frel.KindNumber {
		return 0, 0, fmt.Errorf("exec: merge-join attributes %s/%s must be numeric (the order ≼ requires continuous possibility distributions)", outerAttr, innerAttr)
	}
	return oi, ii, nil
}

// MergeAntiMin evaluates the group-minimum anti-join pattern produced by
// unnesting the set-exclusion (JX, Section 5) and universally quantified
// (JALL, Section 7) queries: for each outer tuple r it emits r with degree
//
//	d′_r = min( r.D, min over s in Rng(r) of 1 − min(µ_S(s), Terms(r, s)) ),
//
// where Terms is the minimum of the rewrite's conjuncts, which include the
// equality on the merge attributes. Inner tuples outside Rng(r) have a
// penalty of 1 by construction — their equi-join degree is 0 — so scanning
// only Rng(r) with the merge cursor computes the same minimum the GROUPBY
// R.K / MIN(D) query computes over all of S. Without merge attributes
// (e.g. a string correlation) Rng(r) is the whole inner. Outer tuples
// whose final degree is 0 or below Floor are dropped.
//
// A running minimum only falls, so the scan of Rng(r) stops as soon as it
// is below Floor (at 0 without one): r is dropped whatever the rest of
// Rng(r) holds. An outer tuple whose own degree is below Floor is
// dropped without a scan.
type MergeAntiMin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Terms                *kernel.Program

	// Workers is the sweep's worker count; below 2 the sweep is serial.
	Workers int

	// Floor is the least output degree the plan still needs (0: every
	// positive degree; see plan's push-threshold rule).
	Floor float64

	// Ctx is the statement's context, polled by the running sweep (nil:
	// never cancelled).
	Ctx context.Context

	// Stats receives the operator's work: the support-intersecting pairs
	// examined before the scan stops as Comparisons, one degree evaluation
	// (of Terms) per such pair, and the Rng(r) scan length of every outer
	// tuple the floor does not drop outright.
	Stats *OpStats

	oi, ii int
}

// NewMergeAntiMin builds the operator counting into st; inputs must be
// sorted like for KernelMergeJoin, and empty merge attributes select the
// whole-inner window. A nil terms is the empty conjunction.
func NewMergeAntiMin(outer, inner Source, outerAttr, innerAttr string, terms *kernel.Program, st *OpStats) (*MergeAntiMin, error) {
	oi, ii, err := windowAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if terms == nil {
		terms = &kernel.Program{}
	}
	return &MergeAntiMin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Terms: terms, Stats: st,
		oi: oi, ii: ii,
	}, nil
}

// Schema implements Source: the output carries the outer tuples.
func (j *MergeAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source: the flat-column, morsel-scheduled sweep (see
// sweep.go). Each morsel keeps the running minimum of its outer
// tuples in place and emits every outer tuple whose minimum stays
// positive and at least Floor, in the outer input's order.
func (j *MergeAntiMin) Open() (BatchIterator, error) {
	in, err := collectFlat("merge anti-join", j.Outer, j.Inner, j.oi, j.ii, fuzzy.Trapezoid{}, j.Workers, j.Stats)
	if err != nil {
		return nil, err
	}
	f := j.Floor
	degs := make([]float64, len(in.outer))
	return in.run(j.Workers, func(p partRange) ([]frel.Tuple, error) {
		loc := newBatchLocals(j.Ctx)
		win := keyWindow{start: p.iLo, end: p.iLo}
		for o := p.oLo; o < p.oHi; o++ {
			d := in.oKeys[o].D
			if d < f {
				continue
			}
			lo, hi := in.oKeys[o].Lo, in.oKeys[o].Hi
			win.slide(in.iKeys, p.iHi, lo, hi, fuzzy.Trapezoid{})
			var rng int64
			for k := win.start; k < win.end; k++ {
				if !(lo <= in.iKeys[k].Hi && in.iKeys[k].Lo <= hi) {
					continue // the penalty would be 1
				}
				rng++
				loc.deg++
				g := j.Terms.EvalAnd(in.outer[o].Values, in.inner[k].Values, 0)
				if in.iKeys[k].D < g {
					g = in.iKeys[k].D
				}
				if g = 1 - g; g < d {
					d = g
					if d == 0 || d < f {
						break
					}
				}
			}
			loc.observeRng(rng)
			degs[o] = d
			if err := loc.poll(); err != nil {
				return nil, err
			}
		}
		loc.flush(j.Stats)
		return emitCarried(in.outer[p.oLo:p.oHi], degs[p.oLo:p.oHi], nil, f), nil
	})
}
