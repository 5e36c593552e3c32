// Batched forms of the merge-based join operators. Each one replicates
// its tuple-at-a-time counterpart exactly — same output tuples in the same
// order, same counter and statistics totals — while amortizing the
// per-tuple costs: window entries carry precomputed support endpoints (or
// read them from a cached key column), counters accumulate in locals and
// flush once per batch instead of one atomic add per pair, and join
// outputs are written into a single fresh value arena per output batch
// instead of one allocation per tuple.
package exec

import (
	"fmt"
	"math"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// batchLocals accumulates the per-pair work counters of one NextBatch call
// so the shared atomics are touched once per batch. The cmp/deg/tout
// fields mirror Counters, stCmp/stDeg and the rng fields mirror OpStats
// (see MergeJoin.Stats for the two counting conventions).
type batchLocals struct {
	cmp, deg, tout int64
	stCmp, stDeg   int64
	rngN, rngSum   int64
	rngMin, rngMax int64
}

func newBatchLocals() batchLocals { return batchLocals{rngMin: math.MaxInt64} }

func (l *batchLocals) observeRng(n int64) {
	l.rngN++
	l.rngSum += n
	if n < l.rngMin {
		l.rngMin = n
	}
	if n > l.rngMax {
		l.rngMax = n
	}
}

func (l *batchLocals) flush(c *Counters, st *OpStats) {
	if l.cmp != 0 {
		c.Comparisons.Add(l.cmp)
	}
	if l.deg != 0 {
		c.DegreeEvals.Add(l.deg)
	}
	if l.tout != 0 {
		c.TuplesOut.Add(l.tout)
	}
	if st != nil {
		if l.stCmp != 0 {
			st.Comparisons.Add(l.stCmp)
		}
		if l.stDeg != 0 {
			st.DegreeEvals.Add(l.stDeg)
		}
		st.ObserveRngBulk(l.rngN, l.rngSum, l.rngMin, l.rngMax)
	}
	*l = newBatchLocals()
}

// winEntry is one buffered inner tuple with its precomputed raw support
// interval on the join attribute.
type winEntry struct {
	t      frel.Tuple
	lo, hi float64
}

// batchWindow is the batched form of window: the Rng(r) buffer of inner
// tuples, fed from a BatchIterator, with support endpoints computed once
// per tuple at pull time (or copied from the producer's key column).
type batchWindow struct {
	it  BatchIterator
	idx int

	buf   []winEntry
	start int

	cur     []frel.Tuple
	curKeys []frel.SupportKey
	pos     int

	pending    winEntry
	hasPending bool
	done       bool

	prevBegin float64
	seenAny   bool
	err       error
}

func newBatchWindow(it BatchIterator, idx int) *batchWindow {
	return &batchWindow{it: it, idx: idx}
}

// pull stages the next inner tuple, verifying sortedness, exactly like
// window.pull.
func (w *batchWindow) pull() bool {
	if w.hasPending {
		return true
	}
	if w.done {
		return false
	}
	for w.pos >= len(w.cur) {
		b, ok := w.it.NextBatch()
		if !ok {
			if e := w.it.Err(); e != nil {
				w.err = e
			}
			w.done = true
			return false
		}
		w.cur, w.curKeys, w.pos = b, batchKeys(w.it), 0
	}
	t := w.cur[w.pos]
	var lo, hi float64
	if w.curKeys != nil {
		k := w.curKeys[w.pos]
		lo, hi = k.Lo, k.Hi
	} else {
		lo, hi = t.Values[w.idx].Num.Support()
	}
	w.pos++
	if w.seenAny && lo < w.prevBegin {
		w.err = fmt.Errorf("exec: merge-join inner input is not sorted by the Definition 3.1 order")
		w.done = true
		return false
	}
	w.prevBegin, w.seenAny = lo, true
	w.pending, w.hasPending = winEntry{t: t, lo: lo, hi: hi}, true
	return true
}

func (w *batchWindow) advance(outerLo float64) {
	for w.start < len(w.buf) {
		if w.buf[w.start].hi >= outerLo {
			break
		}
		w.start++
	}
	if w.start > 256 && w.start*2 > len(w.buf) {
		n := copy(w.buf, w.buf[w.start:])
		w.buf = w.buf[:n]
		w.start = 0
	}
}

func (w *batchWindow) extend(outerHi float64) {
	for w.pull() {
		if w.pending.lo > outerHi {
			return
		}
		w.buf = append(w.buf, w.pending)
		w.hasPending = false
	}
}

func (w *batchWindow) active() []winEntry { return w.buf[w.start:] }

func (w *batchWindow) close() { w.it.Close() }

// OpenBatch implements BatchSource for the extended merge-join.
func (j *MergeJoin) OpenBatch() (BatchIterator, error) {
	outerIt, err := OpenBatches(j.Outer)
	if err != nil {
		return nil, err
	}
	innerIt, err := OpenBatches(j.Inner)
	if err != nil {
		outerIt.Close()
		return nil, err
	}
	return &mergeJoinBatchIterator{
		j:       j,
		outer:   outerIt,
		win:     newBatchWindow(innerIt, j.ii),
		loc:     newBatchLocals(),
		tolZero: j.Tol == (fuzzy.Trapezoid{}),
	}, nil
}

type mergeJoinBatchIterator struct {
	j     *MergeJoin
	outer BatchIterator
	win   *batchWindow

	obatch []frel.Tuple
	okeys  []frel.SupportKey
	opos   int

	// The outer tuple under the cursor. It persists across NextBatch calls
	// when the output batch fills mid-window; the Rng(r) observation is
	// recorded only once its window scan completes.
	cur          frel.Tuple
	curLo, curHi float64
	curActive    []winEntry
	curPos       int
	haveCur      bool
	curRng       int64

	prevBegin float64
	seenAny   bool

	// tolZero short-circuits the per-pair tolerance shift: adding the zero
	// trapezoid is the identity, and OpEq joins (the common case) have a
	// zero tolerance.
	tolZero bool

	out   []frel.Tuple
	arena []frel.Value

	loc  batchLocals
	err  error
	done bool
}

func (it *mergeJoinBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.err != nil || it.done {
		return nil, false
	}
	j := it.j
	if it.out == nil {
		it.out = make([]frel.Tuple, 0, BatchSize)
	}
	it.out = it.out[:0]
	// A fresh arena per output batch: emitted Values slices are never
	// recycled, so retained tuples stay valid (see the batch contract).
	it.arena = nil
	for len(it.out) < BatchSize {
		if !it.haveCur {
			for it.opos >= len(it.obatch) {
				b, ok := it.outer.NextBatch()
				if !ok {
					if e := it.outer.Err(); e != nil {
						it.err = e
					}
					it.done = true
					return it.finish()
				}
				it.obatch, it.okeys, it.opos = b, batchKeys(it.outer), 0
			}
			l := it.obatch[it.opos]
			var lo, hi float64
			if it.okeys != nil {
				k := it.okeys[it.opos]
				lo, hi = k.Lo, k.Hi
			} else {
				lo, hi = l.Values[j.oi].Num.Support()
			}
			it.opos++
			if it.seenAny && lo < it.prevBegin {
				it.err = fmt.Errorf("exec: merge-join outer input is not sorted by the Definition 3.1 order")
				return it.finish()
			}
			it.prevBegin, it.seenAny = lo, true
			it.win.advance(lo - j.Tol.D)
			it.win.extend(hi - j.Tol.A)
			if it.win.err != nil {
				it.err = it.win.err
				return it.finish()
			}
			it.cur, it.curLo, it.curHi = l, lo, hi
			it.curActive = it.win.active()
			it.curPos, it.curRng, it.haveCur = 0, 0, true
		}
		lX := it.cur.Values[j.oi].Num
		for it.curPos < len(it.curActive) && len(it.out) < BatchSize {
			e := &it.curActive[it.curPos]
			it.curPos++
			it.loc.cmp++
			// Support pretest on the precomputed endpoints, bit-identical
			// to lX.Intersects(Add(s, Tol)) because Add shifts the support
			// corners by (Tol.A, Tol.D).
			if !(it.curLo <= e.hi+j.Tol.D && e.lo+j.Tol.A <= it.curHi) {
				continue // dangling tuple inside the range
			}
			it.curRng++
			it.loc.stCmp++
			it.loc.stDeg++
			it.loc.deg++
			sX := e.t.Values[j.ii].Num
			if !it.tolZero {
				sX = fuzzy.Add(sX, j.Tol)
			}
			d := fuzzy.Eq(lX, sX)
			if it.cur.D < d {
				d = it.cur.D
			}
			if e.t.D < d {
				d = e.t.D
			}
			if d > 0 && j.Extra != nil {
				it.loc.deg++
				it.loc.stDeg++
				if g := j.Extra(it.cur, e.t); g < d {
					d = g
				}
			}
			if d > 0 {
				it.loc.tout++
				it.emit(e.t, d)
			}
		}
		if it.curPos >= len(it.curActive) {
			it.loc.observeRng(it.curRng)
			it.haveCur = false
		}
	}
	it.loc.flush(j.Counters, j.Stats)
	return it.out, true
}

// finish flushes the counter locals and returns any accumulated output;
// a pending error is reported by Err after the following NextBatch.
func (it *mergeJoinBatchIterator) finish() ([]frel.Tuple, bool) {
	it.loc.flush(it.j.Counters, it.j.Stats)
	if len(it.out) > 0 {
		return it.out, true
	}
	return nil, false
}

func (it *mergeJoinBatchIterator) emit(s frel.Tuple, d float64) {
	w := len(it.cur.Values) + len(s.Values)
	if it.arena == nil {
		it.arena = make([]frel.Value, 0, BatchSize*w)
	}
	off := len(it.arena)
	it.arena = append(it.arena, it.cur.Values...)
	it.arena = append(it.arena, s.Values...)
	it.out = append(it.out, frel.Tuple{Values: it.arena[off:len(it.arena):len(it.arena)], D: d})
}

func (it *mergeJoinBatchIterator) Err() error { return it.err }

func (it *mergeJoinBatchIterator) Close() {
	it.win.close()
	it.outer.Close()
}

// atomicCutsKeyed is atomicCuts over precomputed support-key columns; the
// cut points are identical.
func atomicCutsKeyed(outer, inner []frel.SupportKey, tol fuzzy.Trapezoid) []partRange {
	var cuts [][2]int
	maxHi := math.Inf(-1)
	o, i := 0, 0
	for o < len(outer) || i < len(inner) {
		var lo, hi float64
		takeOuter := false
		if o < len(outer) {
			if i < len(inner) {
				takeOuter = outer[o].Lo <= inner[i].Lo+tol.A
			} else {
				takeOuter = true
			}
		}
		if takeOuter {
			lo, hi = outer[o].Lo, outer[o].Hi
		} else {
			lo, hi = inner[i].Lo+tol.A, inner[i].Hi+tol.D
		}
		if (o > 0 || i > 0) && lo > maxHi {
			cuts = append(cuts, [2]int{o, i})
		}
		if hi > maxHi {
			maxHi = hi
		}
		if takeOuter {
			o++
		} else {
			i++
		}
	}
	ranges := make([]partRange, 0, len(cuts)+1)
	po, pi := 0, 0
	for _, c := range cuts {
		ranges = append(ranges, partRange{po, c[0], pi, c[1]})
		po, pi = c[0], c[1]
	}
	ranges = append(ranges, partRange{po, len(outer), pi, len(inner)})
	return ranges
}

// OpenBatch implements BatchSource: partitions are joined by batched
// sub-joins over keyed partition slices, and the concatenated outputs are
// replayed in partition order (identical to the serial sequence).
func (j *ParallelMergeJoin) OpenBatch() (BatchIterator, error) {
	outer, oKeys, err := collectSortedBatched(j.Outer, j.oi, "merge-join outer")
	if err != nil {
		return nil, err
	}
	inner, iKeys, err := collectSortedBatched(j.Inner, j.ii, "merge-join inner")
	if err != nil {
		return nil, err
	}
	parts := balanceParts(atomicCutsKeyed(oKeys, iKeys, j.Tol), j.Workers*4)
	results := make([][]frel.Tuple, len(parts))
	err = runParallel(j.Workers, len(parts), func(i int) error {
		p := parts[i]
		if p.oHi == p.oLo || p.iHi == p.iLo {
			// A side is empty: nothing joins in this range, but a serial
			// run still observes an empty Rng(r) scan per outer tuple.
			if j.Stats != nil && p.oHi > p.oLo {
				j.Stats.ObserveRngBulk(int64(p.oHi-p.oLo), 0, 0, 0)
			}
			return nil
		}
		mj, err := NewBandMergeJoin(
			NewKeyedMemSource(&frel.Relation{Schema: j.Outer.Schema(), Tuples: outer[p.oLo:p.oHi]}, oKeys[p.oLo:p.oHi]),
			NewKeyedMemSource(&frel.Relation{Schema: j.Inner.Schema(), Tuples: inner[p.iLo:p.iHi]}, iKeys[p.iLo:p.iHi]),
			j.OuterAttr, j.InnerAttr, j.Tol, j.Extra, j.Counters)
		if err != nil {
			return err
		}
		mj.Stats = j.Stats
		bit, err := mj.OpenBatch()
		if err != nil {
			return err
		}
		defer bit.Close()
		for {
			b, ok := bit.NextBatch()
			if !ok {
				break
			}
			results[i] = append(results[i], b...)
		}
		return bit.Err()
	})
	if err != nil {
		return nil, err
	}
	return &partsBatchIterator{parts: results}, nil
}

// partsBatchIterator replays per-partition result slices in partition
// order, a BatchSize subslice at a time.
type partsBatchIterator struct {
	parts [][]frel.Tuple
	p, i  int
}

func (it *partsBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for it.p < len(it.parts) {
		part := it.parts[it.p]
		if it.i < len(part) {
			end := it.i + BatchSize
			if end > len(part) {
				end = len(part)
			}
			b := part[it.i:end]
			it.i = end
			return b, true
		}
		it.p++
		it.i = 0
	}
	return nil, false
}

func (it *partsBatchIterator) Remaining() int {
	n := -it.i
	for _, part := range it.parts[it.p:] {
		n += len(part)
	}
	return n
}

func (it *partsBatchIterator) Err() error { return nil }
func (it *partsBatchIterator) Close()     {}
