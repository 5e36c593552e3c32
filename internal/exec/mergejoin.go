package exec

import (
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
// support begins after r's ends. Inner tuples between the cursor and the
// stop point are kept buffered, mirroring the pinned pages of the paper's
// algorithm, so the inner relation is read exactly once.

// window maintains the buffered slice of inner tuples that may still
// intersect current or future outer tuples.
type window struct {
	it  Iterator
	idx int // inner join attribute index

	buf   []frel.Tuple
	start int

	pending    frel.Tuple
	hasPending bool
	done       bool

	prevBegin float64
	seenAny   bool

	counters *Counters
	err      error
}

func newWindow(it Iterator, idx int, counters *Counters) *window {
	return &window{it: it, idx: idx, counters: counters}
}

func (w *window) supportOf(t frel.Tuple) (lo, hi float64) {
	return t.Values[w.idx].Num.Support()
}

// pull fetches the next inner tuple into pending, verifying sortedness.
func (w *window) pull() bool {
	if w.hasPending {
		return true
	}
	if w.done {
		return false
	}
	t, ok := w.it.Next()
	if !ok {
		if e := w.it.Err(); e != nil {
			w.err = e
		}
		w.done = true
		return false
	}
	lo, _ := w.supportOf(t)
	if w.seenAny && lo < w.prevBegin {
		w.err = fmt.Errorf("exec: merge-join inner input is not sorted by the Definition 3.1 order")
		w.done = true
		return false
	}
	w.prevBegin, w.seenAny = lo, true
	w.pending, w.hasPending = t, true
	return true
}

// advance drops the leading buffered tuples whose supports end before
// outerLo; they cannot intersect this or any later outer tuple.
func (w *window) advance(outerLo float64) {
	for w.start < len(w.buf) {
		if _, hi := w.supportOf(w.buf[w.start]); hi >= outerLo {
			break
		}
		w.start++
	}
	// Compact occasionally so dropped tuples are reclaimed.
	if w.start > 256 && w.start*2 > len(w.buf) {
		n := copy(w.buf, w.buf[w.start:])
		w.buf = w.buf[:n]
		w.start = 0
	}
}

// extend pulls inner tuples into the buffer while their supports begin at
// or before outerHi (i.e. they may belong to Rng of the current outer
// tuple).
func (w *window) extend(outerHi float64) {
	for w.pull() {
		lo, _ := w.supportOf(w.pending)
		if lo > outerHi {
			return
		}
		w.buf = append(w.buf, w.pending)
		w.hasPending = false
	}
}

// active returns the buffered tuples of the current range.
func (w *window) active() []frel.Tuple { return w.buf[w.start:] }

func (w *window) close() { w.it.Close() }

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

// MergeJoin is the extended merge-join on the fuzzy equi-join condition
// outer.OuterAttr = inner.InnerAttr. Both inputs must already be sorted on
// their join attribute by the Definition 3.1 order (use extsort.ByAttr).
// Extra, if non-nil, contributes additional conjunctive predicate degrees
// (e.g. the second join predicate of an unnested type J query).
//
// The emitted tuple is outer ++ inner with degree
// min(outer.D, inner.D, d(outer.X = inner.X), Extra(outer, inner)).
type MergeJoin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Extra                JoinPred
	Counters             *Counters

	// Tol generalizes the equi-join to a band join (Section 3 relates the
	// fuzzy equi-join to band joins): the join degree becomes the
	// similarity d(outer.X ≈ inner.X) under the tolerance distribution of
	// acceptable differences, and the Rng(r) cursor widens accordingly.
	// The zero value is Crisp(0): exact fuzzy equality.
	Tol fuzzy.Trapezoid

	// Stats, when non-nil, receives the per-operator EXPLAIN ANALYZE
	// measures. Unlike Counters.Comparisons (which counts every window
	// tuple examined, including dangling tuples, and so differs between
	// serial and partitioned execution), Stats.Comparisons counts only
	// support-intersecting pairs — a partition-invariant quantity — and
	// the Rng(r) scan length of each outer tuple is reported through
	// Stats.ObserveRng.
	Stats *OpStats

	schema *frel.Schema
	oi, ii int
}

// NewMergeJoin builds an extended merge-join on exact fuzzy equality.
func NewMergeJoin(outer, inner Source, outerAttr, innerAttr string, extra JoinPred, counters *Counters) (*MergeJoin, error) {
	return NewBandMergeJoin(outer, inner, outerAttr, innerAttr, fuzzy.Crisp(0), extra, counters)
}

// NewBandMergeJoin builds an extended merge-join with a band tolerance:
// tuples join to the degree their values are approximately equal under
// tol (see fuzzy.ApproxEq). With crisp values and a crisp symmetric tol
// this is exactly the band join of the related work the paper cites.
func NewBandMergeJoin(outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra JoinPred, counters *Counters) (*MergeJoin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if !tol.Valid() {
		return nil, fmt.Errorf("exec: invalid band tolerance %v", tol)
	}
	if counters == nil {
		counters = &Counters{}
	}
	return &MergeJoin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Extra: extra, Counters: counters, Tol: tol,
		schema: outer.Schema().Join(inner.Schema()),
		oi:     oi, ii: ii,
	}, nil
}

// Schema implements Source.
func (j *MergeJoin) Schema() *frel.Schema { return j.schema }

// Open implements Source.
func (j *MergeJoin) Open() (Iterator, error) {
	outerIt, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	innerIt, err := j.Inner.Open()
	if err != nil {
		outerIt.Close()
		return nil, err
	}
	return &mergeJoinIterator{
		j:     j,
		outer: outerIt,
		win:   newWindow(innerIt, j.ii, j.Counters),
	}, nil
}

type mergeJoinIterator struct {
	j     *MergeJoin
	outer Iterator
	win   *window

	cur       frel.Tuple
	curActive []frel.Tuple
	curPos    int
	haveCur   bool
	curRng    int64 // intersecting inner tuples seen for cur (Rng(r))

	prevBegin float64
	seenAny   bool
	err       error
}

func (it *mergeJoinIterator) Next() (frel.Tuple, bool) {
	for {
		if it.err != nil {
			return frel.Tuple{}, false
		}
		if !it.haveCur {
			l, ok := it.outer.Next()
			if !ok {
				if e := it.outer.Err(); e != nil {
					it.err = e
				}
				return frel.Tuple{}, false
			}
			lo, hi := l.Values[it.j.oi].Num.Support()
			if it.seenAny && lo < it.prevBegin {
				it.err = fmt.Errorf("exec: merge-join outer input is not sorted by the Definition 3.1 order")
				return frel.Tuple{}, false
			}
			it.prevBegin, it.seenAny = lo, true
			// A band tolerance widens the range: an inner value s may join
			// when support(s ⊕ tol) intersects support(r).
			it.win.advance(lo - it.j.Tol.D)
			it.win.extend(hi - it.j.Tol.A)
			if it.win.err != nil {
				it.err = it.win.err
				return frel.Tuple{}, false
			}
			it.cur = l
			it.curActive = it.win.active()
			it.curPos = 0
			it.haveCur = true
			it.curRng = 0
		}
		lX := it.cur.Values[it.j.oi].Num
		for it.curPos < len(it.curActive) {
			s := it.curActive[it.curPos]
			it.curPos++
			it.j.Counters.Comparisons.Add(1)
			sX := fuzzy.Add(s.Values[it.j.ii].Num, it.j.Tol)
			if !lX.Intersects(sX) {
				continue // dangling tuple inside the range
			}
			it.curRng++
			if st := it.j.Stats; st != nil {
				st.Comparisons.Add(1)
				st.DegreeEvals.Add(1)
			}
			it.j.Counters.DegreeEvals.Add(1)
			d := fuzzy.Eq(lX, sX)
			if it.cur.D < d {
				d = it.cur.D
			}
			if s.D < d {
				d = s.D
			}
			if d > 0 && it.j.Extra != nil {
				it.j.Counters.DegreeEvals.Add(1)
				if st := it.j.Stats; st != nil {
					st.DegreeEvals.Add(1)
				}
				if g := it.j.Extra(it.cur, s); g < d {
					d = g
				}
			}
			if d > 0 {
				it.j.Counters.TuplesOut.Add(1)
				return it.cur.Concat(s, d), true
			}
		}
		if st := it.j.Stats; st != nil {
			st.ObserveRng(it.curRng)
		}
		it.haveCur = false
	}
}

func (it *mergeJoinIterator) Err() error { return it.err }

func (it *mergeJoinIterator) Close() {
	it.win.close()
	it.outer.Close()
}

// MergeAntiMin evaluates the group-minimum anti-join pattern produced by
// unnesting the set-exclusion (JX, Section 5) and universally quantified
// (JALL, Section 7) queries: for each outer tuple r it emits r with degree
//
//	d′_r = min( r.D, min over s in Rng(r) of Penalty(r, s) ),
//
// where Penalty returns 1 − min(µ_S(s), …) per the rewrite. Inner tuples
// outside Rng(r) satisfy Penalty = 1 by construction — their equi-join
// degree is 0 — so scanning only Rng(r) with the merge cursor computes the
// same minimum the GROUPBY R.K / MIN(D) query computes over all of S.
// Outer tuples whose final degree is 0 are dropped.
type MergeAntiMin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Penalty              JoinPred
	Counters             *Counters

	// Terms, when non-nil, is the compiled form of Penalty: the conjuncts
	// whose minimum, further capped by the inner tuple's degree, the
	// penalty complements (Penalty = 1 − min(µ_S(s), Terms(r, s))). With
	// it the batch form runs as the morsel-scheduled kernel sweep on
	// Workers workers (see OpenBatch); without it, batch consumers are
	// served from the tuple iterator.
	Terms   *kernel.PairProgram
	Workers int

	// Stats, when non-nil, receives the per-operator EXPLAIN ANALYZE
	// measures (see MergeJoin.Stats for the counting conventions).
	Stats *OpStats

	oi, ii int
}

// NewMergeAntiMin builds the operator; inputs must be sorted like for
// MergeJoin, and Penalty must evaluate to 1 for pairs whose join-attribute
// supports do not intersect.
func NewMergeAntiMin(outer, inner Source, outerAttr, innerAttr string, penalty JoinPred, counters *Counters) (*MergeAntiMin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if counters == nil {
		counters = &Counters{}
	}
	return &MergeAntiMin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Penalty: penalty, Counters: counters,
		oi: oi, ii: ii,
	}, nil
}

// Schema implements Source: the output carries the outer tuples.
func (j *MergeAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source.
func (j *MergeAntiMin) Open() (Iterator, error) {
	outerIt, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	innerIt, err := j.Inner.Open()
	if err != nil {
		outerIt.Close()
		return nil, err
	}
	return &antiMinIterator{
		j:     j,
		outer: outerIt,
		win:   newWindow(innerIt, j.ii, j.Counters),
	}, nil
}

type antiMinIterator struct {
	j     *MergeAntiMin
	outer Iterator
	win   *window

	prevBegin float64
	seenAny   bool
	err       error
}

func (it *antiMinIterator) Next() (frel.Tuple, bool) {
	for {
		if it.err != nil {
			return frel.Tuple{}, false
		}
		l, ok := it.outer.Next()
		if !ok {
			if e := it.outer.Err(); e != nil {
				it.err = e
			}
			return frel.Tuple{}, false
		}
		lo, hi := l.Values[it.j.oi].Num.Support()
		if it.seenAny && lo < it.prevBegin {
			it.err = fmt.Errorf("exec: merge anti-join outer input is not sorted by the Definition 3.1 order")
			return frel.Tuple{}, false
		}
		it.prevBegin, it.seenAny = lo, true
		it.win.advance(lo)
		it.win.extend(hi)
		if it.win.err != nil {
			it.err = it.win.err
			return frel.Tuple{}, false
		}
		d := l.D
		lX := l.Values[it.j.oi].Num
		var rng int64
		for _, s := range it.win.active() {
			it.j.Counters.Comparisons.Add(1)
			if !lX.Intersects(s.Values[it.j.ii].Num) {
				continue // Penalty would be 1
			}
			rng++
			if st := it.j.Stats; st != nil {
				st.Comparisons.Add(1)
				st.DegreeEvals.Add(1)
			}
			it.j.Counters.DegreeEvals.Add(1)
			if g := it.j.Penalty(l, s); g < d {
				d = g
				if d == 0 {
					break
				}
			}
		}
		if st := it.j.Stats; st != nil {
			st.ObserveRng(rng)
		}
		if d > 0 {
			out := l
			out.D = d
			it.j.Counters.TuplesOut.Add(1)
			return out, true
		}
	}
}

func (it *antiMinIterator) Err() error { return it.err }

func (it *antiMinIterator) Close() {
	it.win.close()
	it.outer.Close()
}

// OpenBatch implements BatchSource: the kernel anti-min, the flat-column,
// morsel-scheduled form of the operator (see sweep.go). Each morsel keeps
// the running minimum of its outer tuples in place and emits every outer
// tuple whose minimum stays positive, so the degrees, their evaluation
// order and every counter are those of the tuple iterator. Without
// compiled Terms the tuple iterator serves the batches.
func (j *MergeAntiMin) OpenBatch() (BatchIterator, error) {
	if j.Terms == nil {
		return adaptTuples(j)
	}
	in, err := collectFlat("merge anti-join", j.Outer, j.Inner, j.oi, j.ii, fuzzy.Trapezoid{}, j.Workers, j.Counters, j.Stats)
	if err != nil {
		return nil, err
	}
	degs := make([]float64, len(in.outer))
	return in.run(j.Workers, func(p partRange) []frel.Tuple {
		loc := newBatchLocals()
		win := keyWindow{start: p.iLo, end: p.iLo}
		for o := p.oLo; o < p.oHi; o++ {
			lo, hi := in.oKeys[o].Lo, in.oKeys[o].Hi
			win.slide(in.iKeys, p.iHi, lo, hi, fuzzy.Trapezoid{})
			d := in.oKeys[o].D
			var rng int64
			for k := win.start; k < win.end; k++ {
				loc.cmp++
				if !(lo <= in.iKeys[k].Hi && in.iKeys[k].Lo <= hi) {
					continue // Penalty would be 1
				}
				rng++
				loc.stCmp++
				loc.stDeg++
				g, ev := j.Terms.EvalAnd(in.outer[o].Values, in.inner[k].Values)
				loc.deg += 1 + ev
				if in.iKeys[k].D < g {
					g = in.iKeys[k].D
				}
				if g = 1 - g; g < d {
					d = g
					if d == 0 {
						break
					}
				}
			}
			loc.observeRng(rng)
			degs[o] = d
		}
		out := emitCarried(in.outer[p.oLo:p.oHi], degs[p.oLo:p.oHi], nil)
		loc.tout += int64(len(out))
		loc.flush(j.Counters, j.Stats)
		return out
	})
}
