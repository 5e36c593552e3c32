// Package core implements the paper's primary contribution: the unnesting
// of nested Fuzzy SQL queries (Sections 4-8) and, as the baseline every
// experiment compares against, the naive nested-loop evaluation of the
// nested execution semantics (Section 2.3).
//
// Two evaluators share one environment:
//
//   - Env.EvalNaive executes a query exactly by its nested semantics: the
//     inner block is re-evaluated for every tuple of the outer block.
//   - Env.PlanQuery classifies the query (type N, J, JX, JA, JALL, or a
//     K-level chain) and rewrites it to the equivalent flat form of the
//     corresponding theorem; Env.Eval evaluates that plan with the
//     extended merge-join (over the whole inner where no range order
//     applies, and with the naive evaluator for shapes outside the
//     paper's classes).
//
// Both take an optional *ExecStats: given one, the evaluation records its
// per-operator EXPLAIN ANALYZE tree there, the one account of where a
// statement's time and work went.
//
// The equivalence theorems 4.1-8.1 are validated by randomized tests that
// compare the two evaluators tuple-for-tuple and degree-for-degree.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// ErrUnknownTerm reports a linguistic term that resolves in neither the
// session's term scope nor the shared catalog. The public API maps it to
// a typed error code.
var ErrUnknownTerm = errors.New("unknown linguistic term")

// Env is the evaluation environment: relation and term resolution plus the
// resource knobs (sort memory, parallelism) and work counters.
type Env struct {
	cat *catalog.Catalog

	// scopeTerms, when non-nil, is the session-local linguistic-term
	// scope: a per-connection vocabulary layered over the shared catalog,
	// consulted first by term resolution (scope → database). Forked
	// sessions get one; the database's base session resolves directly
	// against the catalog.
	scopeTerms map[string]fuzzy.Trapezoid

	// SortMemPages is the memory budget, in pages, for external sorts
	// (default 256 pages = the paper's 2 MB). It also sizes the sort-order
	// cache: an order is cached in memory, as columns in sort order (104
	// bytes per tuple of three numeric attributes), only while the columns
	// the caches of the database's sessions hold together stay within 8 ×
	// SortMemPages pages (16 MiB at the default; see sortcache.go). The
	// sweeps are not bounded by it: every window holds both of its inputs
	// in memory.
	SortMemPages int

	// DisableJoinReorder turns off the dynamic-programming join ordering
	// and keeps the syntactic relation order (ablation switch).
	DisableJoinReorder bool

	// Parallelism is the worker count for the join sweeps and for sort run
	// generation: 0 means exec.DefaultParallelism()
	// (GOMAXPROCS), 1 forces fully serial execution.
	Parallelism int

	// sortCache is the sort-order cache, lazily initialized; see
	// sortcache.go for the keying and invalidation contract.
	sortCache map[sortKey]*sortEntry
	// budget is the cache budget of the environment's database, shared
	// with every session forked from it; held is this environment's share
	// of it (guarded by budget.mu).
	budget *cacheBudget
	held   int64
	// retired are the sorted copies that left the cache (nil entries
	// included), dropped when the running evaluation ends.
	retired []*storage.HeapFile

	// streams are the streamed external sorts of the running evaluation,
	// closed when it ends (see sortstream.go).
	streams []*sortedStream

	// ctx, when non-nil, is observed by the leaf scans and the running
	// sweeps of every evaluation (set for the duration of an Eval or
	// EvalNaive call).
	ctx context.Context

	// snap, when non-nil, is the snapshot the current evaluation reads
	// under: heap scans are bounded to the snapshot's committed tuple
	// counts (see snapshot.go). Set for the duration of one statement (or
	// one transaction's statements); nil means live reads.
	snap *Snapshot

	// analyze, when non-nil, is the EXPLAIN ANALYZE collection the run
	// path attaches per-operator stats nodes to (set for the duration of
	// an Eval or EvalNaive call given one).
	analyze *ExecStats

	// Work is the running total of the work every operator the environment
	// ran counted (comparisons, degree evaluations, sort-cache and index
	// traffic, kernel tuples, …). Outside EXPLAIN ANALYZE operators count
	// into it directly; the nodes of an analyzed statement are added to it
	// when the statement ends, also when it failed. Its rows-out, pool,
	// page-I/O and wall-time fields carry no total and are not to be read.
	Work *exec.OpStats
}

// NewEnv builds an environment over a catalog (with on-disk relations and
// its linguistic terms).
func NewEnv(cat *catalog.Catalog) *Env {
	e := &Env{cat: cat, Work: exec.NewOpStats("total", ""), budget: &cacheBudget{}}
	e.SortMemPages = 256
	return e
}

// NewMemEnv builds an environment over an empty catalog whose heap files
// and write-ahead log live in memory (storage.MemFS, a 256-page buffer
// pool). Relations are loaded with LoadRelation and terms defined with
// DefineTerm; queries then run exactly as over a database directory.
func NewMemEnv() *Env {
	m, err := storage.NewManagerOptions("mem", storage.ManagerOptions{PoolPages: 256, FS: storage.NewMemFS()})
	if err != nil {
		panic(err) // an empty file system holds no log to replay
	}
	return NewEnv(catalog.New(m))
}

// LoadRelation creates a catalog relation named name with r's schema and
// appends r's tuples to it.
func (e *Env) LoadRelation(name string, r *frel.Relation) error {
	h, err := e.cat.CreateRelation(name, r.Schema)
	if err != nil {
		return err
	}
	return h.AppendAll(r)
}

// DefineTerm adds a linguistic term to the catalog.
func (e *Env) DefineTerm(name string, t fuzzy.Trapezoid) error {
	return e.cat.DefineTerm(name, t)
}

func relKey(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

func termKey(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// workers resolves the Parallelism knob to an effective worker count.
func (e *Env) workers() int {
	if e.Parallelism == 0 {
		return exec.DefaultParallelism()
	}
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}

// term resolves a linguistic term: the session-local scope first, then
// the shared catalog.
func (e *Env) term(name string) (fuzzy.Trapezoid, bool) {
	if t, ok := e.scopeTerms[termKey(name)]; ok {
		return t, true
	}
	return e.cat.Term(name)
}

// EnableTermScope gives the environment a session-local term scope;
// subsequent DefineScopedTerm calls land there and shadow same-named
// catalog terms for this environment only.
func (e *Env) EnableTermScope() {
	if e.scopeTerms == nil {
		e.scopeTerms = make(map[string]fuzzy.Trapezoid)
	}
}

// HasTermScope reports whether the environment carries a session-local
// term scope.
func (e *Env) HasTermScope() bool { return e.scopeTerms != nil }

// DefineScopedTerm binds a linguistic term in the session-local scope.
func (e *Env) DefineScopedTerm(name string, t fuzzy.Trapezoid) error {
	if e.scopeTerms == nil {
		return fmt.Errorf("core: environment has no term scope")
	}
	if !t.Valid() {
		return fmt.Errorf("core: term %q has invalid distribution %v", name, t)
	}
	e.scopeTerms[termKey(name)] = t
	return nil
}

// ReleaseSortCache empties the sort-order cache and drops its sorted
// copies. Sessions forked off a long-running database call it on close so
// per-connection caches do not accumulate temporary files.
func (e *Env) ReleaseSortCache() {
	e.retireAll()
	e.closeStreams(0)
}

// source resolves a FROM-clause relation reference to a scan of its
// catalog heap whose schema carries the binding name (FROM alias). Sorts
// of the scan are served through the sort-order cache (see sortcache.go).
func (e *Env) source(tr fsql.TableRef) (exec.Source, error) {
	name, alias := tr.Name, tr.Binding()
	h, err := e.cat.Relation(name)
	if err != nil {
		return nil, err
	}
	var src exec.Source
	if e.snap != nil && !e.snap.Live(h) {
		sn, ok := e.snap.Lookup(h)
		if !ok {
			// The name resolves to a heap created (or swapped in by a
			// DELETE rewrite) after the snapshot was taken: the
			// transaction cannot see a consistent state of it.
			return nil, fmt.Errorf("core: %w: relation %q changed after the transaction began", ErrTxnConflict, name)
		}
		src = exec.NewHeapSourceAt(h, sn.Tuples)
	} else {
		src = exec.NewHeapSource(h)
	}
	if alias != "" && relKey(alias) != h.Schema.Name {
		src = &renameSource{Source: src, schema: h.Schema.WithName(relKey(alias))}
	}
	return exec.WithContext(e.ctx, src), nil
}

// shiftSource adds a constant distribution to one numeric attribute of
// every tuple — the tolerance-folding transform of NEAR correlations.
type shiftSource struct {
	src   exec.Source
	idx   int
	shift fuzzy.Trapezoid
}

func newShiftSource(src exec.Source, attr string, shift fuzzy.Trapezoid) (exec.Source, error) {
	i, err := src.Schema().Resolve(attr)
	if err != nil {
		return nil, err
	}
	if src.Schema().Attrs[i].Kind != frel.KindNumber {
		return nil, fmt.Errorf("core: cannot shift non-numeric attribute %s", attr)
	}
	return &shiftSource{src: src, idx: i, shift: shift}, nil
}

func (s *shiftSource) Schema() *frel.Schema { return s.src.Schema() }

// Open implements exec.Source: the shifted values of each batch are
// written into one fresh arena (a single allocation per batch instead of
// one per tuple).
func (s *shiftSource) Open() (exec.BatchIterator, error) {
	in, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	return &shiftBatchIterator{in: in, idx: s.idx, shift: s.shift}, nil
}

type shiftBatchIterator struct {
	in    exec.BatchIterator
	idx   int
	shift fuzzy.Trapezoid
	out   []frel.Tuple
}

func (it *shiftBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	b, ok := it.in.NextBatch()
	if !ok {
		return nil, false
	}
	it.out = it.out[:0]
	arena := make([]frel.Value, 0, len(b)*len(b[0].Values))
	for _, t := range b {
		off := len(arena)
		arena = append(arena, t.Values...)
		vals := arena[off:len(arena):len(arena)]
		vals[it.idx] = frel.Num(fuzzy.Add(vals[it.idx].Num, it.shift))
		it.out = append(it.out, frel.Tuple{Values: vals, D: t.D})
	}
	return it.out, true
}

func (it *shiftBatchIterator) Err() error { return it.in.Err() }
func (it *shiftBatchIterator) Close()     { it.in.Close() }

// renameSource rebinds a source's schema name (FROM alias). Renaming does
// not touch tuples: the wrapped source's iterator is served as it is.
type renameSource struct {
	exec.Source
	schema *frel.Schema
}

func (r *renameSource) Schema() *frel.Schema { return r.schema }

// sortSource returns src sorted on attr. Plain scans of base relations go
// through the sort-order cache (see sortcache.go): a repeat sort of an
// unmodified relation is served from the cached order's columns without
// re-sorting or reading a page, a cold sort of a relation carrying a
// persistent order index on the attribute is sorted in memory over the
// heap's decoded columns, starting from the index's order (decodedSort),
// and any other cold sort is an external sort of the heap whose final
// merge feeds the consumer. The second request for an order at a heap
// version is admitted: it builds the order's columns in memory and caches
// them (decodedSort again, starting from tid order), or, when they would
// pass the cache budget, copies the external sort's final merge into a
// cached sorted heap file as it is pulled. Any other input (a filtered
// scan, a join's intermediate result) is encoded a tuple at a time into
// the same external sort, whose final merge feeds the consumer the same
// way: it writes runs only for what the sort memory cannot hold.
func (e *Env) sortSource(src exec.Source, attr string) (exec.Source, error) {
	order, err := extsort.OrderBy(src.Schema(), attr)
	if err != nil {
		return nil, err
	}
	base := baseScan(src)
	if base == nil {
		it, err := src.Open()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		in := &tupleRecords{it: it, schema: src.Schema(), stats: e.cat.Manager().Stats()}
		out, node, err := e.streamSort(attr, src.Schema(), in, -1, order)
		if err != nil {
			return nil, err
		}
		return e.attach(node, exec.WithContext(e.ctx, out), src), nil
	}
	key := sortKey{heap: base.Heap, attr: order.Attr}
	version := e.heapVersion(base.Heap)
	e.dropStale(base.Heap, version)
	ent := e.entry(key)
	if out := ent.source(version, src.Schema()); out != nil {
		node := e.newNode("sort", attr)
		node.CacheHits.Add(1)
		return e.attach(node, exec.WithContext(e.ctx, out), src), nil
	}
	if ix := e.cat.IndexForHeap(base.Heap, order.Attr); ix != nil {
		if out, ok, err := e.decodedSort(src, base, key, version, attr, ix.Heap()); err != nil || ok {
			return out, err
		}
	}
	// The order is admitted if last streamed at this version: built in
	// memory as columns when they fit the cache budget.
	admit := ent.seen && ent.streamed == version
	ent.streamed, ent.seen = version, true
	if admit {
		if out, ok, err := e.decodedSort(src, base, key, version, attr, nil); err != nil || ok {
			return out, err
		}
	}
	// The sorter reads the base heap directly, bounded by the scan's
	// snapshot limit.
	sc := base.Heap.ScanAt(base.Limit)
	defer sc.Close()
	out, node, err := e.streamSort(attr, src.Schema(), sc, base.Heap.Bytes(), order)
	if err != nil {
		return nil, err
	}
	node.CacheMisses.Add(1)
	// An admitted order over the budget is cached as its sorted copy,
	// keyed by the version the evaluation saw: a bounded snapshot scan's
	// sorted copy must only serve readers of that snapshot state, never
	// the live (possibly further-appended) heap.
	if admit {
		if err := out.copyTo(key, version); err != nil {
			out.Close()
			return nil, err
		}
	}
	return e.attach(node, exec.WithContext(e.ctx, out), src), nil
}

// streamSort sorts the records of in, tuples of schema, up to the final
// merge (size bounds the input's bytes when not negative) and returns that
// merge as a source of schema, with the sort node its work is counted in.
// Run generation and the merge passes before the final one run here, and
// their wall time and page I/O, less the time and page reads pulling a
// tupleRecords input took, count toward the sort node. The source is
// closed, and its runs dropped, when its consumer closes it or at the
// latest when the evaluation ends.
func (e *Env) streamSort(attr string, schema *frel.Schema, in extsort.Records, size int64, order extsort.Order) (*sortedStream, *exec.OpStats, error) {
	mgr := e.cat.Manager()
	start, ios := time.Now(), mgr.Stats().IO()
	str, err := extsort.NewSorter(mgr, e.SortMemPages).WithParallelism(e.workers()).Stream(schema, in, size, order)
	if err != nil {
		return nil, nil, err
	}
	elapsed, sortIOs := time.Since(start), mgr.Stats().IO()-ios
	if t, ok := in.(*tupleRecords); ok {
		// The input's operators count their own work.
		elapsed, sortIOs = elapsed-t.wall, sortIOs-t.reads
	}
	st := str.Stats()
	node := e.newNode("sort", attr)
	node.SortRuns.Add(int64(st.Runs))
	node.MergePasses.Add(int64(st.MergePasses))
	node.SpillBytes.Add(st.SpillBytes)
	node.Comparisons.Add(st.Comparisons)
	node.WallNanos.Add(elapsed.Nanoseconds())
	node.PageIOs.Add(sortIOs)
	out := &sortedStream{e: e, schema: schema, attr: order.Attr, str: str, node: node, counted: st.Comparisons}
	e.streams = append(e.streams, out)
	return out, node, nil
}
