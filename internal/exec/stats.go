// Per-operator work counters.
//
// OpStats is the one structure operators count into, and the EXPLAIN
// ANALYZE tree built of it is the one account of where a statement's time
// went. Every operator takes a non-nil *OpStats and adds the work it does
// itself (comparisons, degree evaluations, Rng(r) scan lengths, sort runs,
// …) to it; rows out and wall time are measured from the outside by
// wrapping the operator in a Stated source, so a node shared by the morsel
// workers of one sweep never double-counts its output. A sort or index
// load also adds the wall time and page I/O of the work it does before
// its consumer pulls (run generation, reading an index). Under EXPLAIN
// ANALYZE every operator gets its own node and the nodes form a tree
// mirroring the operator tree; otherwise the engine hands every operator
// one running-total node.
//
// All counters are atomics: the morsel workers of one logical operator
// write to the same node concurrently. The work counters other than
// Morsels are partition-invariant — Comparisons counts only pairs whose
// supports intersect, a set no atomic cut can split — so serial and
// parallel runs of the same query count identical work, which the property
// tests use as a correctness oracle.
package exec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frel"
)

// OpStats is one node of the statistics tree of an analyzed query.
type OpStats struct {
	Op    string // operator name, e.g. "merge-join"
	Label string // operator detail, e.g. "R.B = S.B"

	RowsOut     atomic.Int64 // tuples produced (counted by the Stated wrapper)
	Comparisons atomic.Int64 // support-intersecting pairs examined
	DegreeEvals atomic.Int64 // membership degree evaluations
	Pruned      atomic.Int64 // answer tuples the WITH cut dropped at the end

	// Rng(r) scan lengths: for each outer tuple of a merge join, the
	// number of inner tuples whose supports intersect it (the paper's
	// Rng(r), Section 3). Min/max are maintained with CAS loops.
	RngCount atomic.Int64
	RngSum   atomic.Int64
	rngMin   atomic.Int64
	rngMax   atomic.Int64

	SortRuns    atomic.Int64 // initial runs written by an external sort
	MergePasses atomic.Int64 // merge passes over the runs
	SpillBytes  atomic.Int64 // bytes written to temporary sort files

	CacheHits   atomic.Int64 // sort-order cache hits (sort skipped entirely)
	CacheMisses atomic.Int64 // sort-order cache misses (order built and stored)
	IndexHits   atomic.Int64 // sorted inputs served from a persistent order index

	PoolHits   atomic.Int64 // buffer-pool page hits
	PoolMisses atomic.Int64 // buffer-pool page misses (physical reads)
	// PageIOs counts the physical page reads and writes of a sort (run
	// generation and merging) or of an index load.
	PageIOs atomic.Int64

	// Compiled-kernel observability: tuples evaluated by fused kernels and
	// morsels dispatched by the pull-queue join scheduler (the one counter
	// that depends on the worker count).
	KernelTuples atomic.Int64
	Morsels      atomic.Int64

	WallNanos atomic.Int64 // inclusive wall time spent inside the operator

	mu       sync.Mutex
	children []*OpStats
}

// NewOpStats creates a named statistics node.
func NewOpStats(op, label string) *OpStats {
	s := &OpStats{Op: op, Label: label}
	s.rngMin.Store(math.MaxInt64)
	return s
}

// AddChild links an input operator's node under this one.
func (s *OpStats) AddChild(c *OpStats) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// ObserveRng records the Rng(r) scan length of one outer tuple.
func (s *OpStats) ObserveRng(n int64) { s.ObserveRngBulk(1, n, n, n) }

// ObserveRngBulk records count Rng(r) observations at once: their sum and
// the min/max among them. It is equivalent to count individual ObserveRng
// calls and lets batched operators flush one accumulated observation set
// per batch. count <= 0 records nothing.
func (s *OpStats) ObserveRngBulk(count, sum, min, max int64) {
	if count <= 0 {
		return
	}
	s.RngCount.Add(count)
	s.RngSum.Add(sum)
	for {
		cur := s.rngMin.Load()
		if min >= cur || s.rngMin.CompareAndSwap(cur, min) {
			break
		}
	}
	for {
		cur := s.rngMax.Load()
		if max <= cur || s.rngMax.CompareAndSwap(cur, max) {
			break
		}
	}
}

// Add adds the work counters of t into s: what the operator counted
// itself. Rows out, pool traffic, page I/O and wall time, measures of one
// statement's run, are left out, and so are t's children.
func (s *OpStats) Add(t *OpStats) {
	s.Comparisons.Add(t.Comparisons.Load())
	s.DegreeEvals.Add(t.DegreeEvals.Load())
	s.ObserveRngBulk(t.RngCount.Load(), t.RngSum.Load(), t.rngMin.Load(), t.rngMax.Load())
	s.SortRuns.Add(t.SortRuns.Load())
	s.MergePasses.Add(t.MergePasses.Load())
	s.SpillBytes.Add(t.SpillBytes.Load())
	s.CacheHits.Add(t.CacheHits.Load())
	s.CacheMisses.Add(t.CacheMisses.Load())
	s.IndexHits.Add(t.IndexHits.Load())
	s.KernelTuples.Add(t.KernelTuples.Load())
	s.Morsels.Add(t.Morsels.Load())
}

// StatsSnapshot is a plain, JSON-serializable copy of a statistics tree.
type StatsSnapshot struct {
	Op           string           `json:"op"`
	Label        string           `json:"label,omitempty"`
	RowsOut      int64            `json:"rows_out"`
	Comparisons  int64            `json:"comparisons,omitempty"`
	DegreeEvals  int64            `json:"degree_evals,omitempty"`
	Pruned       int64            `json:"pruned,omitempty"`
	RngCount     int64            `json:"rng_count,omitempty"`
	RngMin       int64            `json:"rng_min,omitempty"`
	RngAvg       float64          `json:"rng_avg,omitempty"`
	RngMax       int64            `json:"rng_max,omitempty"`
	SortRuns     int64            `json:"sort_runs,omitempty"`
	MergePasses  int64            `json:"merge_passes,omitempty"`
	SpillBytes   int64            `json:"spill_bytes,omitempty"`
	CacheHits    int64            `json:"cache_hits,omitempty"`
	CacheMisses  int64            `json:"cache_misses,omitempty"`
	IndexHits    int64            `json:"index_hits,omitempty"`
	PoolHits     int64            `json:"pool_hits,omitempty"`
	PoolMisses   int64            `json:"pool_misses,omitempty"`
	PageIOs      int64            `json:"page_ios,omitempty"`
	KernelTuples int64            `json:"kernel_tuples,omitempty"`
	Morsels      int64            `json:"morsels,omitempty"`
	WallNanos    int64            `json:"wall_ns"`
	Children     []*StatsSnapshot `json:"children,omitempty"`
}

// Snapshot copies the tree rooted at s into plain values.
func (s *OpStats) Snapshot() *StatsSnapshot {
	snap := &StatsSnapshot{
		Op:           s.Op,
		Label:        s.Label,
		RowsOut:      s.RowsOut.Load(),
		Comparisons:  s.Comparisons.Load(),
		DegreeEvals:  s.DegreeEvals.Load(),
		Pruned:       s.Pruned.Load(),
		SortRuns:     s.SortRuns.Load(),
		MergePasses:  s.MergePasses.Load(),
		SpillBytes:   s.SpillBytes.Load(),
		CacheHits:    s.CacheHits.Load(),
		CacheMisses:  s.CacheMisses.Load(),
		IndexHits:    s.IndexHits.Load(),
		PoolHits:     s.PoolHits.Load(),
		PoolMisses:   s.PoolMisses.Load(),
		PageIOs:      s.PageIOs.Load(),
		KernelTuples: s.KernelTuples.Load(),
		Morsels:      s.Morsels.Load(),
		WallNanos:    s.WallNanos.Load(),
	}
	if n := s.RngCount.Load(); n > 0 {
		snap.RngCount = n
		snap.RngMin = s.rngMin.Load()
		snap.RngMax = s.rngMax.Load()
		snap.RngAvg = float64(s.RngSum.Load()) / float64(n)
	}
	s.mu.Lock()
	children := append([]*OpStats(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Totals sums rows, comparisons and degree evaluations over the whole
// tree; the property tests use them as parallelism-invariance oracles.
func (s *StatsSnapshot) Totals() (rows, comparisons, degreeEvals int64) {
	rows = s.RowsOut
	comparisons = s.Comparisons
	degreeEvals = s.DegreeEvals
	for _, c := range s.Children {
		r, cmp, d := c.Totals()
		rows += r
		comparisons += cmp
		degreeEvals += d
	}
	return rows, comparisons, degreeEvals
}

// Find returns the first node (pre-order) whose Op equals op, or nil.
func (s *StatsSnapshot) Find(op string) *StatsSnapshot {
	if s.Op == op {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(op); m != nil {
			return m
		}
	}
	return nil
}

// Render formats the tree as indented text, one operator per line.
func (s *StatsSnapshot) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *StatsSnapshot) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.Op)
	if s.Label != "" {
		fmt.Fprintf(b, " [%s]", s.Label)
	}
	fmt.Fprintf(b, "  rows=%d", s.RowsOut)
	if s.Comparisons > 0 {
		fmt.Fprintf(b, " cmp=%d", s.Comparisons)
	}
	if s.DegreeEvals > 0 {
		fmt.Fprintf(b, " deg=%d", s.DegreeEvals)
	}
	if s.Pruned > 0 {
		fmt.Fprintf(b, " pruned=%d", s.Pruned)
	}
	if s.RngCount > 0 {
		fmt.Fprintf(b, " rng=%d/%.1f/%d", s.RngMin, s.RngAvg, s.RngMax)
	}
	if s.SortRuns > 0 || s.MergePasses > 0 || s.SpillBytes > 0 {
		fmt.Fprintf(b, " sort(runs=%d passes=%d spill=%dB)", s.SortRuns, s.MergePasses, s.SpillBytes)
	}
	if s.CacheHits > 0 || s.CacheMisses > 0 {
		fmt.Fprintf(b, " cache(hit=%d miss=%d)", s.CacheHits, s.CacheMisses)
	}
	if s.IndexHits > 0 {
		fmt.Fprintf(b, " index(hit=%d)", s.IndexHits)
	}
	if s.PoolHits > 0 || s.PoolMisses > 0 {
		fmt.Fprintf(b, " pool(hit=%d miss=%d)", s.PoolHits, s.PoolMisses)
	}
	if s.KernelTuples > 0 {
		fmt.Fprintf(b, " kernel(tuples=%d)", s.KernelTuples)
	}
	if s.Morsels > 0 {
		fmt.Fprintf(b, " morsels=%d", s.Morsels)
	}
	fmt.Fprintf(b, " time=%s", time.Duration(s.WallNanos).Round(time.Microsecond))
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}

// Stated wraps a source, counting the tuples it produces and the wall
// time spent inside it (Open plus every NextBatch) into Node. A source opened
// several times accumulates across opens.
type Stated struct {
	Src  Source
	Node *OpStats
}

// NewStated wraps src with a statistics node.
func NewStated(src Source, node *OpStats) *Stated {
	return &Stated{Src: src, Node: node}
}

// Schema returns the wrapped source's schema.
func (s *Stated) Schema() *frel.Schema { return s.Src.Schema() }

// Open opens the wrapped source; the time it takes (a sweep does all of
// its work in Open) counts toward the node, and rows and wall time are
// accounted once per batch.
func (s *Stated) Open() (BatchIterator, error) {
	start := time.Now()
	it, err := s.Src.Open()
	s.Node.WallNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	return &statedBatchIterator{in: it, node: s.Node}, nil
}

type statedBatchIterator struct {
	in   BatchIterator
	node *OpStats
}

func (it *statedBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	start := time.Now()
	b, ok := it.in.NextBatch()
	it.node.WallNanos.Add(time.Since(start).Nanoseconds())
	if ok {
		it.node.RowsOut.Add(int64(len(b)))
	}
	return b, ok
}

// Columns implements columnsBatchIterator, counting what it serves as
// rows out.
func (it *statedBatchIterator) Columns() (*frel.Columns, int, bool) {
	start := time.Now()
	cols, sortedOn, ok := columnsOf(it.in)
	it.node.WallNanos.Add(time.Since(start).Nanoseconds())
	if ok {
		it.node.RowsOut.Add(int64(cols.Len()))
	}
	return cols, sortedOn, ok
}

func (it *statedBatchIterator) Remaining() int { return batchesRemaining(it.in) }
func (it *statedBatchIterator) Err() error     { return it.in.Err() }
func (it *statedBatchIterator) Close()         { it.in.Close() }

// Unwrap strips any Stated and context-cancellation wrappers, returning
// the underlying source. The sort-order cache uses it to recognize a plain
// scan of a base relation, so analyzed, cancellable and plain runs hit
// the same cached orders.
func Unwrap(src Source) Source {
	for {
		switch s := src.(type) {
		case *Stated:
			src = s.Src
		case *cancelSource:
			src = s.src
		default:
			return src
		}
	}
}
