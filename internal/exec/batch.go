// Batch-at-a-time execution. Operators exchange slices of tuples instead
// of one tuple per virtual call, amortizing iterator overhead and letting
// producers reuse backing buffers.
//
// Buffer-reuse contract: the []frel.Tuple a NextBatch returns is only
// valid until the next NextBatch (or Close) call on the same iterator —
// producers may recycle the backing array. Consumers that retain tuples
// across calls must copy the tuple structs out first. The Values slices
// inside the tuples, however, are immutable and never recycled: operators
// that build new tuples (joins, projections) write into a fresh arena per
// output batch, so a retained tuple's values stay valid forever. Batches
// are read-only to consumers.
package exec

import (
	"repro/internal/frel"
	"repro/internal/storage"
)

// BatchSize is the target number of tuples per batch. Producers may return
// shorter (or, when replaying materialized results, longer) batches; only
// empty means exhausted.
const BatchSize = 1024

// BatchIterator yields tuples a batch at a time. After NextBatch returns
// ok == false the caller must check Err. See the package comment for the
// buffer-reuse contract.
type BatchIterator interface {
	NextBatch() ([]frel.Tuple, bool)
	Err() error
	Close()
}

// KeyedBatchIterator is a BatchIterator that can also serve the
// precomputed support-interval keys of its last batch (aligned index for
// index). Keys returns nil when no keys are available; like the batch, the
// returned slice is only valid until the next NextBatch call.
type KeyedBatchIterator interface {
	BatchIterator
	Keys() []frel.SupportKey
}

// sizedBatchIterator is a BatchIterator that knows how many tuples it has
// yet to serve (negative: unknown), so a consumer that materializes it can
// allocate once. Wrappers that pass batches through forward it.
type sizedBatchIterator interface {
	BatchIterator
	Remaining() int
}

// batchesRemaining returns the number of tuples it has yet to serve, or a
// negative number when it does not know.
func batchesRemaining(it BatchIterator) int {
	if s, ok := it.(sizedBatchIterator); ok {
		return s.Remaining()
	}
	return -1
}

// BatchSource is a Source that can be opened in batch mode.
type BatchSource interface {
	Source
	OpenBatch() (BatchIterator, error)
}

// OpenBatches opens src in batch mode, adapting tuple-at-a-time sources
// with a buffering shim so every Source can feed a batched consumer.
func OpenBatches(src Source) (BatchIterator, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.OpenBatch()
	}
	return adaptTuples(src)
}

// adaptTuples opens src tuple-at-a-time behind the re-batching shim.
func adaptTuples(src Source) (BatchIterator, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	return &tupleBatchAdapter{it: it}, nil
}

// adaptBatches opens src in batch mode behind the tuple-at-a-time shim:
// how an operator whose only form is batched serves Source.Open.
func adaptBatches(src BatchSource) (Iterator, error) {
	bit, err := src.OpenBatch()
	if err != nil {
		return nil, err
	}
	return &batchTupleAdapter{it: bit}, nil
}

// batchTupleAdapter serves a BatchIterator one tuple at a time.
type batchTupleAdapter struct {
	it  BatchIterator
	buf []frel.Tuple
	pos int
}

func (a *batchTupleAdapter) Next() (frel.Tuple, bool) {
	for a.pos >= len(a.buf) {
		b, ok := a.it.NextBatch()
		if !ok {
			return frel.Tuple{}, false
		}
		a.buf, a.pos = b, 0
	}
	t := a.buf[a.pos]
	a.pos++
	return t, true
}

func (a *batchTupleAdapter) Err() error { return a.it.Err() }
func (a *batchTupleAdapter) Close()     { a.it.Close() }

// batchKeys returns the support keys of it's last batch, or nil when the
// iterator does not serve keys.
func batchKeys(it BatchIterator) []frel.SupportKey {
	if k, ok := it.(KeyedBatchIterator); ok {
		return k.Keys()
	}
	return nil
}

// tupleBatchAdapter re-batches a tuple iterator, reusing one buffer.
type tupleBatchAdapter struct {
	it  Iterator
	buf []frel.Tuple
}

func (a *tupleBatchAdapter) NextBatch() ([]frel.Tuple, bool) {
	if a.buf == nil {
		a.buf = make([]frel.Tuple, 0, BatchSize)
	}
	a.buf = a.buf[:0]
	for len(a.buf) < BatchSize {
		t, ok := a.it.Next()
		if !ok {
			break
		}
		a.buf = append(a.buf, t)
	}
	if len(a.buf) == 0 {
		return nil, false
	}
	return a.buf, true
}

func (a *tupleBatchAdapter) Err() error { return a.it.Err() }
func (a *tupleBatchAdapter) Close()     { a.it.Close() }

// CollectBatched drains a source into an in-memory relation through the
// batch interface (one bulk append per batch).
func CollectBatched(src Source) (*frel.Relation, error) {
	it, err := OpenBatches(src)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := frel.NewRelation(src.Schema())
	if n := batchesRemaining(it); n > 0 {
		out.Tuples = make([]frel.Tuple, 0, n)
	}
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		out.Append(b...)
	}
	return out, it.Err()
}

// memBatchIterator serves consecutive subslices of a tuple slice, with an
// optional aligned support-key column. Served batches alias the backing
// slice, which the iterator never recycles, so they outlive the
// reuse-contract minimum.
type memBatchIterator struct {
	tuples []frel.Tuple
	keys   []frel.SupportKey // optional, aligned with tuples
	pos    int

	lastKeys []frel.SupportKey
}

func (it *memBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		it.lastKeys = nil
		return nil, false
	}
	end := it.pos + BatchSize
	if end > len(it.tuples) {
		end = len(it.tuples)
	}
	b := it.tuples[it.pos:end]
	if it.keys != nil {
		it.lastKeys = it.keys[it.pos:end]
	}
	it.pos = end
	return b, true
}

func (it *memBatchIterator) Keys() []frel.SupportKey { return it.lastKeys }
func (it *memBatchIterator) Remaining() int          { return len(it.tuples) - it.pos }
func (it *memBatchIterator) Err() error              { return nil }
func (it *memBatchIterator) Close()                  {}

// OpenBatch implements BatchSource.
func (m *MemSource) OpenBatch() (BatchIterator, error) {
	return &memBatchIterator{tuples: m.Rel.Tuples}, nil
}

// KeyedMemSource is a MemSource carrying the precomputed support-interval
// keys of its tuples on one attribute (the sort attribute). The engine's
// sort-order cache serves cached sorted relations through it, so the
// merge-join window reads interval endpoints from the flat key column
// instead of recomputing them per cursor step. SortKeys must be aligned
// with Rel.Tuples; nil degrades to an ordinary MemSource.
type KeyedMemSource struct {
	MemSource
	SortKeys []frel.SupportKey
}

// NewKeyedMemSource wraps a relation with its precomputed key column.
func NewKeyedMemSource(r *frel.Relation, keys []frel.SupportKey) *KeyedMemSource {
	return &KeyedMemSource{MemSource: MemSource{Rel: r}, SortKeys: keys}
}

// OpenBatch implements BatchSource, serving keys alongside tuples.
func (m *KeyedMemSource) OpenBatch() (BatchIterator, error) {
	return &memBatchIterator{tuples: m.Rel.Tuples, keys: m.SortKeys}, nil
}

// OpenBatch implements BatchSource: the scan decodes a page-sized batch at
// a time into a reused buffer.
func (h *HeapSource) OpenBatch() (BatchIterator, error) {
	left := h.Heap.NumTuples()
	if h.Limit >= 0 && h.Limit < left {
		left = h.Limit
	}
	return &heapBatchIterator{sc: h.scan(), left: int(left)}, nil
}

type heapBatchIterator struct {
	sc     *storage.Scanner
	buf    []frel.Tuple
	left   int // tuples the scan had yet to serve when it was opened, less those served
	closed bool
}

func (it *heapBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.closed {
		return nil, false
	}
	if it.buf == nil {
		it.buf = make([]frel.Tuple, 0, BatchSize)
	}
	it.buf = it.sc.NextBatch(it.buf)
	if len(it.buf) == 0 {
		return nil, false
	}
	it.left -= len(it.buf)
	return it.buf, true
}

// Remaining is a sizing hint: a live scan also sees tuples appended after
// it was opened, so the count can fall short (never below zero).
func (it *heapBatchIterator) Remaining() int {
	if it.left < 0 {
		return 0
	}
	return it.left
}

func (it *heapBatchIterator) Err() error { return it.sc.Err() }

func (it *heapBatchIterator) Close() {
	if !it.closed {
		it.sc.Close()
		it.closed = true
	}
}

// OpenBatch implements BatchSource: selection filters each input batch in
// place into a reused output buffer.
func (f *Filter) OpenBatch() (BatchIterator, error) {
	in, err := OpenBatches(f.Src)
	if err != nil {
		return nil, err
	}
	return &filterBatchIterator{in: in, pred: f.Pred}, nil
}

type filterBatchIterator struct {
	in   BatchIterator
	pred Pred
	out  []frel.Tuple
}

func (it *filterBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		// Pass-through fast path: while the predicate neither drops nor
		// re-grades tuples, serve the producer's batch as-is (no copy).
		// The predicate runs exactly once per tuple either way (predicates
		// may carry counters).
		copying := false
		for i, t := range b {
			d := t.D
			if g := it.pred(t); g < d {
				d = g
			}
			if !copying {
				if d == t.D && d > 0 {
					continue
				}
				copying = true
				it.out = append(it.out[:0], b[:i]...)
			}
			if d <= 0 {
				continue
			}
			t.D = d
			it.out = append(it.out, t)
		}
		if !copying {
			return b, true
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *filterBatchIterator) Err() error { return it.in.Err() }
func (it *filterBatchIterator) Close()     { it.in.Close() }

// OpenBatch implements BatchSource for the WITH D >= z filter.
func (th *Threshold) OpenBatch() (BatchIterator, error) {
	in, err := OpenBatches(th.Src)
	if err != nil {
		return nil, err
	}
	return &thresholdBatchIterator{in: in, z: th.Z}, nil
}

type thresholdBatchIterator struct {
	in  BatchIterator
	z   float64
	out []frel.Tuple
}

func (it *thresholdBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		// Pass-through fast path: a batch with nothing to drop is served
		// as-is (no copy).
		i := 0
		for ; i < len(b); i++ {
			if b[i].D <= 0 || b[i].D < it.z {
				break
			}
		}
		if i == len(b) {
			return b, true
		}
		it.out = append(it.out[:0], b[:i]...)
		for ; i < len(b); i++ {
			t := b[i]
			if t.D <= 0 || t.D < it.z {
				continue
			}
			it.out = append(it.out, t)
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *thresholdBatchIterator) Err() error { return it.in.Err() }
func (it *thresholdBatchIterator) Close()     { it.in.Close() }

// OpenBatch implements BatchSource. The non-dedup projection writes the
// projected values of each batch into one fresh arena (a single allocation
// per batch instead of one per tuple); the dedup form hashes the projected
// columns of every input tuple in place, materializes the distinct rows,
// and replays them.
func (p *Project) OpenBatch() (BatchIterator, error) {
	in, err := OpenBatches(p.Src)
	if err != nil {
		return nil, err
	}
	if !p.Dedup {
		return &projectBatchIterator{in: in, idx: p.idx}, nil
	}
	defer in.Close()
	set := frel.NewRowSet(len(p.idx))
	for {
		b, ok := in.NextBatch()
		if !ok {
			break
		}
		for _, t := range b {
			set.Add(t.Values, p.setIdx, t.D)
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	return &memBatchIterator{tuples: set.Tuples()}, nil
}

type projectBatchIterator struct {
	in  BatchIterator
	idx []int
	out []frel.Tuple
}

func (it *projectBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	b, ok := it.in.NextBatch()
	if !ok {
		return nil, false
	}
	it.out = it.out[:0]
	arena := make([]frel.Value, 0, len(b)*len(it.idx))
	for _, t := range b {
		off := len(arena)
		for _, i := range it.idx {
			arena = append(arena, t.Values[i])
		}
		it.out = append(it.out, frel.Tuple{Values: arena[off:len(arena):len(arena)], D: t.D})
	}
	return it.out, true
}

func (it *projectBatchIterator) Err() error { return it.in.Err() }
func (it *projectBatchIterator) Close()     { it.in.Close() }
