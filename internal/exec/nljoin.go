package exec

import (
	"repro/internal/frel"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// BlockNLJoin is the naive (block) nested-loop join the paper's nested
// queries must be evaluated with (Sections 1 and 3). Following the
// experimental setup of Section 9, one buffer page is allocated to the
// inner relation and the rest of the memory budget to the outer relation:
// the outer source is consumed in blocks of up to BlockBytes, and for each
// block the inner source is scanned once, joining every inner tuple with
// every buffered outer tuple. CPU cost is O(n_R × n_S); I/O cost is
// b_R + ceil(b_R / (M-1)) × b_S.
//
// The emitted tuple is outer ++ inner with degree
// min(outer.D, inner.D, On(outer, inner)), On being the join's conjuncts
// compiled into the pair program form the merge-join's residual takes.
type BlockNLJoin struct {
	Outer, Inner Source
	On           *kernel.PairProgram // empty: every pair joins
	BlockBytes   int                 // outer block budget; default one page

	// Floor is the least degree the plan still needs of a row (0: every
	// positive degree; see plan's push-threshold rule). A pair whose
	// min(outer.D, inner.D) is already below it skips On.
	Floor float64

	// Stats receives the join's work: every outer×inner pair counts as one
	// comparison, and every call of On as one degree evaluation.
	Stats *OpStats

	schema *frel.Schema
}

// NewBlockNLJoin builds a block nested-loop join counting into st, with
// the given outer block budget in bytes (values < 1 default to one page).
func NewBlockNLJoin(outer, inner Source, on *kernel.PairProgram, blockBytes int, st *OpStats) *BlockNLJoin {
	if blockBytes < 1 {
		blockBytes = storage.PageSize
	}
	return &BlockNLJoin{
		Outer:      outer,
		Inner:      inner,
		On:         on,
		BlockBytes: blockBytes,
		Stats:      st,
		schema:     outer.Schema().Join(inner.Schema()),
	}
}

// Schema implements Source.
func (j *BlockNLJoin) Schema() *frel.Schema { return j.schema }

// Open implements Source.
func (j *BlockNLJoin) Open() (BatchIterator, error) {
	outer, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	return &nlBatchIterator{join: j, outer: outer}, nil
}

// nlBatchIterator emits the join inner-major within an outer block: for
// every inner tuple, in scan order, its pairs with the block's outer
// tuples in block order. Its position (block, inner batch, the inner
// tuple and the outer tuple reached) survives across NextBatch calls, so
// output batches are cut at BatchSize wherever that falls.
type nlBatchIterator struct {
	join  *BlockNLJoin
	outer BatchIterator

	obuf      []frel.Tuple // the outer batch being cut into blocks
	opos      int
	outerDone bool
	block     []frel.Tuple // copies: a block outlives the outer's batches
	blockPos  int

	inner BatchIterator // nil between blocks
	ibuf  []frel.Tuple
	ipos  int

	out []frel.Tuple
	err error
}

// fillBlock buffers the next block of outer tuples within the byte budget.
func (it *nlBatchIterator) fillBlock() bool {
	it.block = it.block[:0]
	schema := it.join.Outer.Schema()
	used := 0
	for used < it.join.BlockBytes && !it.outerDone {
		if it.opos == len(it.obuf) {
			b, ok := it.outer.NextBatch()
			if !ok {
				it.outerDone = true
				break
			}
			it.obuf, it.opos = b, 0
		}
		t := it.obuf[it.opos]
		it.opos++
		it.block = append(it.block, t)
		used += frel.EncodedSize(schema, t)
	}
	return len(it.block) > 0
}

func (it *nlBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	j := it.join
	it.out = it.out[:0]
	var pairs, evals int64
	for it.err == nil && len(it.out) < BatchSize {
		if it.inner == nil {
			if !it.fillBlock() {
				it.err = it.outer.Err()
				break
			}
			in, err := j.Inner.Open()
			if err != nil {
				it.err = err
				break
			}
			it.inner, it.ibuf, it.ipos, it.blockPos = in, nil, 0, 0
		}
		if it.ipos == len(it.ibuf) {
			b, ok := it.inner.NextBatch()
			if !ok {
				it.err = it.inner.Err()
				it.inner.Close()
				it.inner = nil // next outer block
				continue
			}
			it.ibuf, it.ipos = b, 0
		}
		r := it.ibuf[it.ipos]
		for it.blockPos < len(it.block) && len(it.out) < BatchSize {
			l := it.block[it.blockPos]
			it.blockPos++
			pairs++
			d := min(l.D, r.D)
			if d < j.Floor {
				continue
			}
			evals++
			if g := j.On.EvalAnd(l.Values, r.Values, j.Floor); g < d {
				d = g
			}
			if d > 0 && d >= j.Floor {
				it.out = append(it.out, l.Concat(r, d))
			}
		}
		if it.blockPos == len(it.block) {
			it.ipos++ // advance to the next inner tuple
			it.blockPos = 0
		}
	}
	j.Stats.Comparisons.Add(pairs)
	j.Stats.DegreeEvals.Add(evals)
	return it.out, len(it.out) > 0
}

func (it *nlBatchIterator) Err() error { return it.err }

func (it *nlBatchIterator) Close() {
	if it.inner != nil {
		it.inner.Close()
		it.inner = nil
	}
	it.outer.Close()
}
