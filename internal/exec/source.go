// Package exec implements the physical query operators of the fuzzy
// database engine: scans, fuzzy selection, projection with max-degree
// duplicate elimination, the paper's extended merge-join (Section 3), and
// the specialized operators the unnesting rewrites of Sections 5-7 compile
// to (merge anti-join with group-minimum degrees, sorted group-aggregate
// join with the COUNT outer-join arm). The three join operators are one
// flat-column sweep over a window: the support range Rng(r) of a numeric
// equality, or the whole inner for every other correlation. Every condition an
// operator evaluates is a compiled internal/kernel Program: a filter runs it
// over a batch of tuples (RunBatch), a join over a pair of rows (EvalAnd).
//
// There is one operator protocol. Every operator is a Source: it has a
// schema and opens into a BatchIterator, and an operator calls its inputs
// through exactly that. Batches are slices of frel.Tuple values whose D
// field carries the running membership degree; every operator combines
// degrees with fuzzy AND (min) and drops tuples whose degree reaches 0,
// per the execution semantics of Section 2.2. The one optional extension
// is a sizing hint, Remaining, which wrappers forward so a consumer that
// materializes its input can allocate once. Nothing else travels beside
// the batches: the sweeps build the support keys they read (sweep.go).
//
// Buffer-reuse contract: the []frel.Tuple a NextBatch returns is only
// valid until the next NextBatch (or Close) call on the same iterator —
// producers may recycle the backing array. Consumers that retain tuples
// across calls must copy the tuple structs out first. The Values slices
// inside the tuples, however, are immutable and never recycled: operators
// that build new tuples (joins, projections) write into fresh storage per
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
// ok == false the caller must check Err. Close releases resources and is
// idempotent. See the package comment for the buffer-reuse contract.
type BatchIterator interface {
	NextBatch() ([]frel.Tuple, bool)
	Err() error
	Close()
}

// Source is an openable stream of tuples with a known schema. A Source may
// be opened multiple times.
type Source interface {
	Schema() *frel.Schema
	Open() (BatchIterator, error)
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

// Collect drains a source into an in-memory relation, one bulk append per
// batch.
func Collect(src Source) (*frel.Relation, error) {
	it, err := src.Open()
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

// MemSource serves tuples from an in-memory relation.
type MemSource struct {
	Rel *frel.Relation
}

// NewMemSource wraps an in-memory relation.
func NewMemSource(r *frel.Relation) *MemSource { return &MemSource{Rel: r} }

// Schema implements Source.
func (m *MemSource) Schema() *frel.Schema { return m.Rel.Schema }

// Open implements Source.
func (m *MemSource) Open() (BatchIterator, error) {
	return &memBatchIterator{tuples: m.Rel.Tuples}, nil
}

// memBatchIterator serves consecutive subslices of a tuple slice. Served
// batches alias the backing slice, which the iterator never recycles, so
// they outlive the reuse-contract minimum.
type memBatchIterator struct {
	tuples []frel.Tuple
	pos    int
}

func (it *memBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return nil, false
	}
	end := min(it.pos+BatchSize, len(it.tuples))
	b := it.tuples[it.pos:end]
	it.pos = end
	return b, true
}

func (it *memBatchIterator) Remaining() int { return len(it.tuples) - it.pos }
func (it *memBatchIterator) Err() error     { return nil }
func (it *memBatchIterator) Close()         {}

// HeapSource serves tuples from an on-disk heap file through its buffer
// pool, so scans are charged page I/O. Limit, when non-negative, bounds
// the scan to the first Limit tuples — the snapshot-visibility bound of
// MVCC reads (heaps are append-only, so a committed prefix is a
// consistent state).
type HeapSource struct {
	Heap  *storage.HeapFile
	Limit int64
}

// NewHeapSource wraps a heap file for a full (unbounded) scan.
func NewHeapSource(h *storage.HeapFile) *HeapSource { return &HeapSource{Heap: h, Limit: -1} }

// NewHeapSourceAt wraps a heap file for a scan of its first limit tuples
// only, the snapshot-read entry point.
func NewHeapSourceAt(h *storage.HeapFile, limit int64) *HeapSource {
	return &HeapSource{Heap: h, Limit: limit}
}

// Schema implements Source.
func (h *HeapSource) Schema() *frel.Schema { return h.Heap.Schema }

func (h *HeapSource) scan() *storage.Scanner {
	if h.Limit >= 0 {
		return h.Heap.ScanAt(h.Limit)
	}
	return h.Heap.Scan()
}

// Open implements Source: the scan decodes a page-sized batch at
// a time into a reused buffer.
func (h *HeapSource) Open() (BatchIterator, error) {
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
		it.buf = make([]frel.Tuple, 0, min(BatchSize, max(it.left, 1)))
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
