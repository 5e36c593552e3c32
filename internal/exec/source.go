// Package exec implements the physical query operators of the fuzzy
// database engine: scans, fuzzy selection, projection with max-degree
// duplicate elimination, the paper's extended merge-join (Section 3), and
// the specialized operators the unnesting rewrites of Sections 5-7 compile
// to (merge anti-join with group-minimum degrees, sorted group-aggregate
// join with the COUNT outer-join arm). The three join operators are one
// flat-column sweep over a window: the support range Rng(r) of a numeric
// equality, or the whole inner for every other correlation. Every condition an
// operator evaluates is a compiled internal/kernel Program: a filter runs it
// over a batch of tuples (RunBatch), a join over a pair of tuples of its
// inputs held as columns (Bind, EvalAnd).
//
// There is one operator protocol. Every operator is a Source: it has a
// schema and opens into a BatchIterator, and an operator calls its inputs
// through exactly that. Batches are slices of frel.Tuple values whose D
// field carries the running membership degree; every operator combines
// degrees with fuzzy AND (min) and drops tuples whose degree reaches 0,
// per the execution semantics of Section 2.2. Two optional extensions
// travel beside the batches, and wrappers forward both so a consumer that
// materializes its input can allocate once or not at all: a sizing hint,
// Remaining, and Columns, with which an input serves its rest as columns
// (frel.Columns): a cached sort order hands over the columns it holds, an
// external sort's final merge and a heap scan decode straight into them.
// The sweeps read nothing else (sweep.go), and they hand over columns
// too: each morsel selects its survivors (positions and degrees), and the
// columns the plan still reads are gathered once, in morsel order. The
// duplicate-eliminating projection takes them in place (project.go), and
// its distinct columns are the answer (CollectColumns). A consumer that
// needs rows (a filter, a GROUPBY, the
// external sort of an intermediate) reads the same output as batches.
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

// columnsBatchIterator is a BatchIterator that can serve everything it
// has yet to serve as columns, in one call that leaves it exhausted: the
// columns it holds (a cached order, served without a copy) or its rest
// decoded straight into new ones. The columns are the caller's to keep,
// and nobody writes them. sortedOn is the attribute they were checked to
// be sorted on by the Definition 3.1 order when they were built (−1:
// none). ok is false, and nothing is served, when the iterator (under a
// wrapper) has no such form or its context is cancelled; the caller then
// reads its batches (and sees the cancellation in Err). Wrappers that pass
// batches through forward it.
type columnsBatchIterator interface {
	BatchIterator
	Columns() (cols *frel.Columns, sortedOn int, ok bool)
}

// columnsOf serves the rest of it as columns when it can.
func columnsOf(it BatchIterator) (*frel.Columns, int, bool) {
	if c, ok := it.(columnsBatchIterator); ok {
		return c.Columns()
	}
	return nil, -1, false
}

// Collect drains a source into an in-memory relation: built in one pass
// from the columns the source serves (Columns), or one bulk append per
// batch.
func Collect(src Source) (*frel.Relation, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if cols, _, ok := columnsOf(it); ok {
		if err := it.Err(); err != nil {
			return nil, err
		}
		return cols.Relation(src.Schema()), nil
	}
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

// CollectColumns drains a source into columns (see drainColumns).
func CollectColumns(src Source) (*frel.Columns, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	cols, _ := drainColumns(it, src.Schema())
	if err := it.Err(); err != nil {
		return nil, err
	}
	return cols, nil
}

// drainColumns serves the rest of it as columns of schema, with the
// attribute they were checked to be sorted on (−1: none). An input that
// holds or decodes its rest as columns (a cached order, an external
// sort's final merge, a heap scan, a sweep, a projection) serves them
// whole, a cached order without a copy; any other is appended batch by
// batch into columns allocated once when the producer knows how many
// tuples it holds.
func drainColumns(it BatchIterator, schema *frel.Schema) (*frel.Columns, int) {
	if cols, sortedOn, ok := columnsOf(it); ok {
		return cols, sortedOn
	}
	cols := frel.NewColumns(schema, max(batchesRemaining(it), 0))
	for b, ok := it.NextBatch(); ok; b, ok = it.NextBatch() {
		for _, t := range b {
			cols.AppendTuple(t)
		}
	}
	return cols, -1
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

// ColumnsSource serves tuples held as columns, sorted on one attribute: a
// sort order the cache holds, handed to a sweep whole and without a copy
// (Columns), or served as rows to any other consumer.
type ColumnsSource struct {
	schema   *frel.Schema
	cols     *frel.Columns
	sortedOn int
}

// NewSortedColumns serves columns sorted on numeric attribute attr,
// checking the Definition 3.1 order once, here: the sweeps they are
// handed to do not check it again.
func NewSortedColumns(schema *frel.Schema, cols *frel.Columns, attr int) (*ColumnsSource, error) {
	if err := checkSorted(cols.Num[attr], "cached "+schema.Attrs[attr].Name); err != nil {
		return nil, err
	}
	return &ColumnsSource{schema: schema, cols: cols, sortedOn: attr}, nil
}

// WithSchema returns the source of the same columns under another schema
// (a FROM alias), keeping the order they were checked in.
func (c *ColumnsSource) WithSchema(schema *frel.Schema) *ColumnsSource {
	return &ColumnsSource{schema: schema, cols: c.cols, sortedOn: c.sortedOn}
}

// Cols returns the columns the source serves.
func (c *ColumnsSource) Cols() *frel.Columns { return c.cols }

// Schema implements Source.
func (c *ColumnsSource) Schema() *frel.Schema { return c.schema }

// Open implements Source.
func (c *ColumnsSource) Open() (BatchIterator, error) {
	return &colsBatchIterator{cols: c.cols, sortedOn: c.sortedOn}, nil
}

// colsBatchIterator serves columns: whole to a consumer that takes them
// (Columns), or as rows, a batch at a time built into one arena, to any
// other (a filter, the external sort of an intermediate, a GROUPBY). It
// serves a cached order and the output of every sweep and projection.
type colsBatchIterator struct {
	cols     *frel.Columns
	sortedOn int // −1: none
	pos      int
	out      []frel.Tuple
}

// NextBatch builds the next batch's rows from the columns.
func (it *colsBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	cols := it.cols
	end := min(it.pos+BatchSize, cols.Len())
	if it.pos >= end {
		return nil, false
	}
	arena := make([]frel.Value, 0, (end-it.pos)*len(cols.Num))
	it.out = it.out[:0]
	for i := it.pos; i < end; i++ {
		off := len(arena)
		arena = cols.AppendValues(arena, i)
		it.out = append(it.out, frel.Tuple{Values: arena[off:len(arena):len(arena)], D: cols.D[i]})
	}
	it.pos = end
	return it.out, true
}

// Columns implements columnsBatchIterator: the columns themselves, when
// no batch was read yet.
func (it *colsBatchIterator) Columns() (*frel.Columns, int, bool) {
	if it.pos > 0 {
		return nil, -1, false
	}
	it.pos = it.cols.Len()
	return it.cols, it.sortedOn, true
}

func (it *colsBatchIterator) Remaining() int { return it.cols.Len() - it.pos }
func (it *colsBatchIterator) Err() error     { return nil }
func (it *colsBatchIterator) Close()         {}

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
	return &heapBatchIterator{sc: h.scan(), schema: h.Heap.Schema, left: int(left)}, nil
}

type heapBatchIterator struct {
	sc     *storage.Scanner
	schema *frel.Schema
	buf    []frel.Tuple
	left   int // tuples the scan had yet to serve when it was opened, less those served
	closed bool
	err    error // a record Columns could not decode
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

// Columns implements columnsBatchIterator: the rest of the scan, decoded
// straight from its records into columns.
func (it *heapBatchIterator) Columns() (*frel.Columns, int, bool) {
	if it.closed {
		return nil, -1, false
	}
	cols := frel.NewColumns(it.schema, it.Remaining())
	for {
		rec, ok := it.sc.NextRaw()
		if !ok {
			break
		}
		if it.err = cols.AppendRecord(it.schema, rec); it.err != nil {
			break
		}
	}
	it.left = 0
	return cols, -1, true
}

func (it *heapBatchIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.sc.Err()
}

func (it *heapBatchIterator) Close() {
	if !it.closed {
		it.sc.Close()
		it.closed = true
	}
}
