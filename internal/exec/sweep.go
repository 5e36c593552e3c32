// The flat-column sweep the kernel operators share. The kernel merge-join,
// the kernel anti-min and the kernel group-aggregate all run the same way:
// both sorted inputs are held as columns (frel.Columns: the degrees and
// one array per attribute, in sort order), the atomic-cut partitioner
// splits them into join-independent ranges, the ranges are coalesced into
// morsels, and a pool of workers pulls morsels off a shared queue, each
// sweeping its morsel with a two-cursor loop directly over the columns. A morsel owns disjoint
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
// range [−Inf, +Inf]. The window cursor and the support pretest then admit
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

// flatInputs is the materialized form of a kernel operator's two sorted
// inputs, cut into morsels: each input as columns (frel.Columns), and
// beside it its range column, the trapezoids of its range attribute. The
// window cursor, the support pretest and the partitioner read the
// supports [A, D] of the range columns in place; in a whole-inner window
// every range is [−Inf, +Inf].
type flatInputs struct {
	outer, inner *frel.Columns
	oRng, iRng   []fuzzy.Trapezoid
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
	if in.outer, in.oRng, err = collectSorted(outer, oi, op+" outer"); err != nil {
		return nil, err
	}
	if in.inner, in.iRng, err = collectSorted(inner, ii, op+" inner"); err != nil {
		return nil, err
	}
	no, ni := in.outer.Len(), in.inner.Len()
	if workers <= 1 {
		// One worker sweeps everything as one morsel; nothing to cut.
		in.ranges = []partRange{{0, no, 0, ni}}
		in.morsels = []kernel.Morsel{{Lo: 0, Hi: 1}}
	} else {
		in.ranges = atomicCuts(in.oRng, in.iRng, tol)
		grain := morselGrain(no+ni, workers)
		in.morsels = kernel.Coalesce(len(in.ranges), func(i int) int { return in.ranges[i].weight() }, grain)
	}
	st.Morsels.Add(int64(len(in.morsels)))
	st.KernelTuples.Add(int64(no))
	return in, nil
}

// span returns the outer and inner spans of morsel m. A morsel is a run of
// consecutive atomic ranges, so both spans are contiguous and one
// two-cursor sweep covers them: the window empties at every cut.
func (in *flatInputs) span(m int) partRange {
	first, last := in.ranges[in.morsels[m].Lo], in.ranges[in.morsels[m].Hi-1]
	return partRange{first.oLo, last.oHi, first.iLo, last.iHi}
}

// selection is the output of one morsel sweep: the positions of its
// surviving tuples in the input columns, in emission order, and their
// degrees. A sweep that emits tuples of one input lists them in pos; a
// join that emits pairs lists the outer tuple of each in pos and the
// inner one in pos2.
type selection struct {
	pos, pos2 []int32
	d         []float64
}

// newSelection returns a selection with room for n tuples, the most a
// sweep of n tuples of the input it emits can keep.
func newSelection(n int) selection {
	return selection{pos: make([]int32, 0, n), d: make([]float64, 0, n)}
}

// keep appends tuple p at degree d when d is positive and at least floor,
// the least degree the plan still needs.
func (s *selection) keep(p int, d, floor float64) {
	if d > 0 && d >= floor {
		s.pos = append(s.pos, int32(p))
		s.d = append(s.d, d)
	}
}

// emitted is one column of a sweep's output: column col of the input
// columns src, read at the selections' pos, or at their pos2 when second.
type emitted struct {
	src    *frel.Columns
	col    int
	second bool
}

// emitColumns lists the output columns of a sweep that emits tuples of
// src: every column of src when cols is nil, the listed ones otherwise.
func emitColumns(src *frel.Columns, cols []int) []emitted {
	if cols == nil {
		cols = make([]int, len(src.Num))
		for i := range cols {
			cols[i] = i
		}
	}
	out := make([]emitted, len(cols))
	for i, c := range cols {
		out[i] = emitted{src: src, col: c}
	}
	return out
}

// run sweeps every morsel on the worker pool and serves the survivors the
// morsels selected, in morsel order, as one set of columns: the columns
// emit lists, each gathered once. The first error a sweep returns (a
// cancelled context) stops the pool and is returned.
func (in *flatInputs) run(workers int, emit []emitted, sweep func(p partRange) (selection, error)) (BatchIterator, error) {
	sels := make([]selection, len(in.morsels))
	err := runParallel(workers, len(in.morsels), func(m int) (err error) {
		sels[m], err = sweep(in.span(m))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &colsBatchIterator{cols: gather(sels, emit), sortedOn: -1}, nil
}

// gather builds the columns emit lists of the tuples sels selected, in
// order: one allocation per column, pointer-free for numeric columns.
func gather(sels []selection, emit []emitted) *frel.Columns {
	n := 0
	for _, s := range sels {
		n += len(s.d)
	}
	out := &frel.Columns{
		D:   make([]float64, 0, n),
		Num: make([][]fuzzy.Trapezoid, len(emit)),
		Str: make([][]string, len(emit)),
	}
	for _, s := range sels {
		out.D = append(out.D, s.d...)
	}
	for j, e := range emit {
		if num := e.src.Num[e.col]; num != nil {
			out.Num[j] = gatherColumn(num, sels, e.second, n)
		} else {
			out.Str[j] = gatherColumn(e.src.Str[e.col], sels, e.second, n)
		}
	}
	return out
}

// gatherColumn returns src[p] for each of the n positions p the
// selections list (their pos2 when second), in order.
func gatherColumn[T any](src []T, sels []selection, second bool, n int) []T {
	dst := make([]T, 0, n)
	for _, s := range sels {
		for _, p := range s.at(second) {
			dst = append(dst, src[p])
		}
	}
	return dst
}

// at returns the positions of the first or the second tuple of each
// selected row.
func (s *selection) at(second bool) []int32 {
	if second {
		return s.pos2
	}
	return s.pos
}

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

// keyWindow is the Rng(r) cursor over the inner range column: [start, end)
// are the inner tuples that may intersect the current outer tuple or a
// later one.
type keyWindow struct{ start, end int }

// slide moves the window to an outer support [lo, hi]: past the inner
// tuples whose supports, widened by the band tolerance, end before lo, and
// over those (up to limit) that begin at or before hi. The zero tolerance
// adds nothing.
func (w *keyWindow) slide(rng []fuzzy.Trapezoid, limit int, lo, hi float64, tol fuzzy.Trapezoid) {
	for w.start < w.end && rng[w.start].D+tol.D < lo {
		w.start++
	}
	for w.end < limit && rng[w.end].A+tol.A <= hi {
		w.end++
	}
}

// outerRows is the output shape of a sweep that emits its outer tuples
// (the anti-join, the group-aggregate join): every column of them, or the
// columns EmitColumns selected.
type outerRows struct {
	outer, schema *frel.Schema
	emit          []int // nil: every column
}

func newOuterRows(outer *frel.Schema) outerRows { return outerRows{outer: outer, schema: outer} }

// Schema implements Source.
func (r *outerRows) Schema() *frel.Schema { return r.schema }

// EmitColumns restricts the output to the given columns of the outer
// tuples, in the given order: the sweep then gathers only the columns its
// consumer reads.
func (r *outerRows) EmitColumns(emit []int) error {
	schema := &frel.Schema{Name: r.outer.Name}
	for _, c := range emit {
		if c < 0 || c >= len(r.outer.Attrs) {
			return fmt.Errorf("exec: emit column %d out of range", c)
		}
		schema.Attrs = append(schema.Attrs, r.outer.Attrs[c])
	}
	r.schema, r.emit = schema, append([]int{}, emit...)
	return nil
}

// wholeRange is the range of every tuple of a whole-inner window.
var wholeRange = fuzzy.Trapezoid{A: math.Inf(-1), B: math.Inf(-1), C: math.Inf(1), D: math.Inf(1)}

// collectSorted drains src into columns, verifying the Definition 3.1
// sort order on attribute idx, and returns them with the
// range column the sweeps read. An input that holds or decodes its rest
// as columns (a cached order, an external sort's final merge, a heap
// scan, another sweep) serves them whole, a cached order without a copy;
// any other is appended batch by batch into columns allocated once when
// the producer knows how many tuples it holds. Columns checked to be sorted on idx when they were
// built are not checked again. Range index −1 is the whole-inner window:
// every range is [−Inf, +Inf] and no order is checked.
func collectSorted(src Source, idx int, side string) (*frel.Columns, []fuzzy.Trapezoid, error) {
	it, err := src.Open()
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	cols, sortedOn, whole := columnsOf(it)
	if !whole {
		cols = frel.NewColumns(src.Schema(), max(batchesRemaining(it), 0))
		for b, ok := it.NextBatch(); ok; b, ok = it.NextBatch() {
			for _, t := range b {
				cols.AppendTuple(t)
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	if idx < 0 {
		rng := make([]fuzzy.Trapezoid, cols.Len())
		for i := range rng {
			rng[i] = wholeRange
		}
		return cols, rng, nil
	}
	rng := cols.Num[idx]
	if sortedOn != idx {
		if err := checkSorted(rng, side); err != nil {
			return nil, nil, err
		}
	}
	return cols, rng, nil
}

// checkSorted returns an error naming side unless the supports of rng
// begin in non-decreasing order, the Definition 3.1 order's first key.
func checkSorted(rng []fuzzy.Trapezoid, side string) error {
	prev := math.Inf(-1)
	for _, t := range rng {
		if t.A < prev {
			return fmt.Errorf("exec: %s input is not sorted by the Definition 3.1 order", side)
		}
		prev = t.A
	}
	return nil
}
