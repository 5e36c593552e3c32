// The flat-column sweep the kernel operators share. The kernel merge-join,
// the kernel anti-min and the kernel group-aggregate all run the same way:
// both sorted inputs are materialized into flat tuple and support-key
// columns, the atomic-cut partitioner splits them into join-independent
// ranges, the ranges are coalesced into morsels, and a pool of workers
// pulls morsels off a shared queue, each sweeping its morsel with a
// two-cursor loop directly over the flat columns. A morsel owns disjoint
// spans of both inputs, so whatever a sweep reduces per tuple of either
// input (the maximum degree of a folded join, the minimum of an anti-join,
// the aggregate comparison of a group) it writes without synchronization,
// and concatenating the morsel outputs in morsel order is the serial
// operator's output.
//
// Two windows. A numeric equality or NEAR correlation sweeps the support
// window Rng(r) of each outer tuple. Every other correlation (strings,
// <, <=, >, >=, <>, none at all) sweeps the whole-inner window: both
// inputs are collected with range index −1, which gives every tuple the
// key [−Inf, +Inf]. The window cursor and the support pretest then admit
// every inner tuple for every outer one, and the partitioner finds no
// cut, so a whole window is one morsel and its sweep is serial. Both
// windows hold both inputs in memory.
package exec

import (
	"context"
	"fmt"
	"math"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// SupportKey is the sweep key of one tuple on its range attribute: the
// support endpoints b(v), e(v) of Definition 3.1 and the tuple's
// membership degree. collectSorted builds one flat key column per input,
// so the window cursor, the support pretest and the partitioner read
// interval endpoints from a contiguous array instead of from the
// trapezoids.
type SupportKey struct {
	Lo, Hi, D float64
}

// flatInputs is the materialized form of a kernel operator's two sorted
// inputs, cut into morsels.
type flatInputs struct {
	outer, inner []frel.Tuple
	oKeys, iKeys []SupportKey
	ranges       []partRange
	morsels      []kernel.Morsel
}

// collectFlat drains both inputs of the operator named op (for the
// sortedness error), cuts them into morsels for the given worker count,
// and records the kernel observability counters into st. Range indexes
// of −1 select the whole-inner window.
func collectFlat(op string, outer, inner Source, oi, ii int, tol fuzzy.Trapezoid, workers int, st *OpStats) (*flatInputs, error) {
	in := &flatInputs{}
	var err error
	if in.outer, in.oKeys, err = collectSorted(outer, oi, op+" outer"); err != nil {
		return nil, err
	}
	if in.inner, in.iKeys, err = collectSorted(inner, ii, op+" inner"); err != nil {
		return nil, err
	}
	if workers <= 1 {
		// One worker sweeps everything as one morsel; nothing to cut.
		in.ranges = []partRange{{0, len(in.outer), 0, len(in.inner)}}
		in.morsels = []kernel.Morsel{{Lo: 0, Hi: 1}}
	} else {
		in.ranges = atomicCutsKeyed(in.oKeys, in.iKeys, tol)
		grain := morselGrain(len(in.outer)+len(in.inner), workers)
		in.morsels = kernel.Coalesce(len(in.ranges), func(i int) int { return in.ranges[i].weight() }, grain)
	}
	st.Morsels.Add(int64(len(in.morsels)))
	st.KernelTuples.Add(int64(len(in.outer)))
	return in, nil
}

// span returns the outer and inner spans of morsel m. A morsel is a run of
// consecutive atomic ranges, so both spans are contiguous and one
// two-cursor sweep covers them: the window empties at every cut.
func (in *flatInputs) span(m int) partRange {
	first, last := in.ranges[in.morsels[m].Lo], in.ranges[in.morsels[m].Hi-1]
	return partRange{first.oLo, last.oHi, first.iLo, last.iHi}
}

// run sweeps every morsel on the worker pool and returns the morsel
// outputs as one iterator, in morsel order. The first error a sweep
// returns (a cancelled context) stops the pool and is returned.
func (in *flatInputs) run(workers int, sweep func(p partRange) ([]frel.Tuple, error)) (BatchIterator, error) {
	results := make([][]frel.Tuple, len(in.morsels))
	err := runParallel(workers, len(in.morsels), func(m int) (err error) {
		results[m], err = sweep(in.span(m))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &partsBatchIterator{parts: results}, nil
}

// partsBatchIterator replays per-morsel result slices in morsel order, a
// BatchSize subslice at a time.
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

// morselGrain picks the morsel weight target: serial runs get one morsel
// (no scheduling overhead), parallel runs get roughly 16 morsels per
// worker with a floor that keeps per-morsel bookkeeping negligible.
func morselGrain(total, workers int) int {
	if workers <= 1 {
		return total + 1
	}
	g := total / (workers * 16)
	if g < 256 {
		g = 256
	}
	return g
}

// pollEvery is the number of comparisons a morsel sweep makes between two
// looks at its statement's context.
const pollEvery = 1 << 16

// batchLocals accumulates the work counters of one morsel sweep so the
// shared atomics are touched once per morsel, and polls the statement's
// context as the comparisons advance.
type batchLocals struct {
	cmp, deg       int64
	rngN, rngSum   int64
	rngMin, rngMax int64

	ctx      context.Context // nil: never cancelled
	nextPoll int64           // cmp at which the context is next polled
}

func newBatchLocals(ctx context.Context) batchLocals {
	return batchLocals{rngMin: math.MaxInt64, ctx: ctx, nextPoll: pollEvery}
}

// poll returns the context's error once the sweep's comparisons have
// advanced by pollEvery since the last poll; sweeps call it once per
// outer tuple.
func (l *batchLocals) poll() error {
	if l.cmp < l.nextPoll || l.ctx == nil {
		return nil
	}
	l.nextPoll = l.cmp + pollEvery
	return l.ctx.Err()
}

// observeRng records the Rng(r) scan length of one outer tuple: the n
// support-intersecting pairs it was compared with.
func (l *batchLocals) observeRng(n int64) {
	l.cmp += n
	l.rngN++
	l.rngSum += n
	if n < l.rngMin {
		l.rngMin = n
	}
	if n > l.rngMax {
		l.rngMax = n
	}
}

func (l *batchLocals) flush(st *OpStats) {
	st.Comparisons.Add(l.cmp)
	st.DegreeEvals.Add(l.deg)
	st.ObserveRngBulk(l.rngN, l.rngSum, l.rngMin, l.rngMax)
}

// keyWindow is the Rng(r) cursor over a flat inner key column: [start, end)
// are the inner tuples that may intersect the current outer tuple or a
// later one.
type keyWindow struct{ start, end int }

// slide moves the window to an outer support [lo, hi]: past the inner
// tuples whose supports, widened by the band tolerance, end before lo, and
// over those (up to limit) that begin at or before hi. The zero tolerance
// adds nothing.
func (w *keyWindow) slide(keys []SupportKey, limit int, lo, hi float64, tol fuzzy.Trapezoid) {
	for w.start < w.end && keys[w.start].Hi+tol.D < lo {
		w.start++
	}
	for w.end < limit && keys[w.end].Lo+tol.A <= hi {
		w.end++
	}
}

// emitCarried builds the output of a sweep that reduced one degree per
// tuple of an input: one row, at that degree, for every tuple whose degree
// is positive and at least floor. With a nil emit mask a row is the tuple
// itself (its values are shared, not copied); otherwise it holds the
// masked columns, written into one arena. Both allocations are sized by
// the rows that survive.
func emitCarried(tuples []frel.Tuple, degs []float64, emit []int, floor float64) []frel.Tuple {
	n := 0
	for _, d := range degs {
		if d > 0 && d >= floor {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]frel.Tuple, 0, n)
	var arena []frel.Value
	if emit != nil {
		arena = make([]frel.Value, 0, n*len(emit))
	}
	for i, d := range degs {
		if d <= 0 || d < floor {
			continue
		}
		vals := tuples[i].Values
		if emit != nil {
			off := len(arena)
			for _, c := range emit {
				arena = append(arena, vals[c])
			}
			vals = arena[off:len(arena):len(arena)]
		}
		out = append(out, frel.Tuple{Values: vals, D: d})
	}
	return out
}

// collectSorted drains src, verifying the Definition 3.1 sort order and
// building the flat support-key column the partitioner and the sweeps run
// on, one key per tuple from its value on attribute idx. An in-memory
// input (a cached order) is taken as its slice, without a copy; any other
// is appended batch by batch into a column allocated once when the
// producer knows how many tuples it holds. Range index −1 is the
// whole-inner window: every key is [−Inf, +Inf] and no order is checked.
func collectSorted(src Source, idx int, side string) ([]frel.Tuple, []SupportKey, error) {
	it, err := src.Open()
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	tuples, whole := rest(it)
	if !whole {
		if n := batchesRemaining(it); n > 0 {
			tuples = make([]frel.Tuple, 0, n)
		}
		for b, ok := it.NextBatch(); ok; b, ok = it.NextBatch() {
			tuples = append(tuples, b...)
		}
	}
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	keys := make([]SupportKey, len(tuples))
	prevBegin := math.Inf(-1)
	for i, t := range tuples {
		lo, hi := math.Inf(-1), math.Inf(1)
		if idx >= 0 {
			lo, hi = t.Values[idx].Num.Support()
		}
		if lo < prevBegin {
			return nil, nil, fmt.Errorf("exec: %s input is not sorted by the Definition 3.1 order", side)
		}
		prevBegin = lo
		keys[i] = SupportKey{Lo: lo, Hi: hi, D: t.D}
	}
	return tuples, keys, nil
}
