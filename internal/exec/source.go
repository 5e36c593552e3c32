// Package exec implements the physical query operators of the fuzzy
// database engine in the iterator (Volcano) style: scans, fuzzy selection,
// projection with max-degree duplicate elimination, the naive block
// nested-loop join, the paper's extended merge-join (Section 3), and the
// specialized operators the unnesting rewrites of Sections 5-7 compile to
// (merge anti-join with group-minimum degrees, sorted group-aggregate
// join with the COUNT outer-join arm).
//
// Operators exchange frel.Tuple values whose D field carries the running
// membership degree; every operator combines degrees with fuzzy AND (min)
// and drops tuples whose degree reaches 0, per the execution semantics of
// Section 2.2.
package exec

import (
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/storage"
)

// Iterator yields tuples one at a time. After Next returns ok == false the
// caller must check Err. Close releases resources and is idempotent.
type Iterator interface {
	Next() (t frel.Tuple, ok bool)
	Err() error
	Close()
}

// Source is an openable stream of tuples with a known schema. A Source may
// be opened multiple times (the nested-loop join re-opens its inner
// source once per outer block).
type Source interface {
	Schema() *frel.Schema
	Open() (Iterator, error)
}

// Counters accumulates the CPU-side work measures reported by the
// experiments: fuzzy degree evaluations (the dominant cost the paper
// attributes to "calls to the fuzzy library functions") and tuple
// comparisons made by merges. The fields are atomic so one Counters may be
// shared by the morsel workers of a sweep; Counters must not be copied
// after first use.
type Counters struct {
	DegreeEvals atomic.Int64
	Comparisons atomic.Int64
	TuplesOut   atomic.Int64

	// Sort-order cache traffic: a hit means a query reused a previously
	// built sorted permutation (no re-sort), a miss means the order was
	// built and stored.
	SortCacheHits   atomic.Int64
	SortCacheMisses atomic.Int64

	// IndexHits counts sorted inputs served from a persistent order index
	// (no sort at all, neither cached nor fresh).
	IndexHits atomic.Int64

	// KernelTuples counts tuples whose degrees were computed by compiled
	// kernels (the fused filter and the flat-column sweeps); Morsels counts
	// the work units the morsel scheduler dispatched. Both are
	// observability-only: they do not participate in any invariance
	// oracle.
	KernelTuples atomic.Int64
	Morsels      atomic.Int64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.DegreeEvals.Add(other.DegreeEvals.Load())
	c.Comparisons.Add(other.Comparisons.Load())
	c.TuplesOut.Add(other.TuplesOut.Load())
	c.SortCacheHits.Add(other.SortCacheHits.Load())
	c.SortCacheMisses.Add(other.SortCacheMisses.Load())
	c.IndexHits.Add(other.IndexHits.Load())
	c.KernelTuples.Add(other.KernelTuples.Load())
	c.Morsels.Add(other.Morsels.Load())
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.DegreeEvals.Store(0)
	c.Comparisons.Store(0)
	c.TuplesOut.Store(0)
	c.SortCacheHits.Store(0)
	c.SortCacheMisses.Store(0)
	c.IndexHits.Store(0)
	c.KernelTuples.Store(0)
	c.Morsels.Store(0)
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
func (m *MemSource) Open() (Iterator, error) {
	return &memIterator{tuples: m.Rel.Tuples}, nil
}

type memIterator struct {
	tuples []frel.Tuple
	pos    int
}

func (it *memIterator) Next() (frel.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return frel.Tuple{}, false
	}
	t := it.tuples[it.pos]
	it.pos++
	return t, true
}

func (it *memIterator) Err() error { return nil }
func (it *memIterator) Close()     {}

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

// Open implements Source.
func (h *HeapSource) Open() (Iterator, error) {
	return &heapIterator{sc: h.scan()}, nil
}

type heapIterator struct {
	sc     *storage.Scanner
	closed bool
}

func (it *heapIterator) Next() (frel.Tuple, bool) {
	if it.closed {
		return frel.Tuple{}, false
	}
	return it.sc.Next()
}

func (it *heapIterator) Err() error { return it.sc.Err() }

func (it *heapIterator) Close() {
	if !it.closed {
		it.sc.Close()
		it.closed = true
	}
}

// Collect drains a source into an in-memory relation.
func Collect(src Source) (*frel.Relation, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := frel.NewRelation(src.Schema())
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out.Append(t)
	}
	return out, it.Err()
}
