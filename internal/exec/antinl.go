package exec

import (
	"repro/internal/frel"
	"repro/internal/kernel"
)

// NLAntiMin is the nested-loop fallback of the group-minimum anti-join
// (Queries JX′ and JALL′ when no merge range attribute is available, e.g.
// string link attributes): the inner relation is materialized once, when
// the operator is opened, and every outer tuple r takes
//
//	d′_r = min( r.D, min over all s of 1 − min(µ_S(s), Terms(r, s)) ),
//
// MergeAntiMin's degree without the Rng(r) restriction. Still an unnested
// evaluation — the inner block is not re-evaluated per outer tuple. Like
// MergeAntiMin it drops an outer tuple whose own degree is below Floor
// without a scan, and stops a scan once the running minimum is below
// Floor (at 0 without one).
type NLAntiMin struct {
	Outer, Inner Source
	Terms        *kernel.PairProgram

	// Floor is the least output degree the plan still needs (0: every
	// positive degree; see plan's push-threshold rule).
	Floor float64

	// Stats receives the operator's work: every outer×inner pair examined
	// counts as one comparison and one degree evaluation (of Terms).
	Stats *OpStats
}

// NewNLAntiMin builds the operator counting into st.
func NewNLAntiMin(outer, inner Source, terms *kernel.PairProgram, st *OpStats) *NLAntiMin {
	return &NLAntiMin{Outer: outer, Inner: inner, Terms: terms, Stats: st}
}

// Schema implements Source; the output carries the outer schema.
func (j *NLAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source.
func (j *NLAntiMin) Open() (BatchIterator, error) {
	inner, err := Collect(j.Inner)
	if err != nil {
		return nil, err
	}
	outer, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	return &nlAntiBatchIterator{j: j, outer: outer, inner: inner.Tuples}, nil
}

type nlAntiBatchIterator struct {
	j     *NLAntiMin
	outer BatchIterator
	inner []frel.Tuple
	out   []frel.Tuple
}

func (it *nlAntiBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	j := it.j
	for {
		b, ok := it.outer.NextBatch()
		if !ok {
			return nil, false
		}
		it.out = it.out[:0]
		var pairs int64
		for _, l := range b {
			d := l.D
			if d < j.Floor {
				continue
			}
			for _, r := range it.inner {
				pairs++
				g := j.Terms.EvalAnd(l.Values, r.Values, 0)
				if r.D < g {
					g = r.D
				}
				if g = 1 - g; g < d {
					d = g
					if d == 0 || d < j.Floor {
						break
					}
				}
			}
			if d > 0 && d >= j.Floor {
				l.D = d
				it.out = append(it.out, l)
			}
		}
		j.Stats.Comparisons.Add(pairs)
		j.Stats.DegreeEvals.Add(pairs)
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *nlAntiBatchIterator) Err() error { return it.outer.Err() }
func (it *nlAntiBatchIterator) Close()     { it.outer.Close() }
