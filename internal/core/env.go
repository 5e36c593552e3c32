// Package core implements the paper's primary contribution: the unnesting
// of nested Fuzzy SQL queries (Sections 4-8) and, as the baseline every
// experiment compares against, the naive nested-loop evaluation of the
// nested execution semantics (Section 2.3).
//
// Two evaluators share one environment:
//
//   - Env.EvalNaive executes a query exactly by its nested semantics: the
//     inner block is re-evaluated for every tuple of the outer block.
//   - Env.EvalUnnested classifies the query (type N, J, JX, JA, JALL, or a
//     K-level chain), rewrites it to the equivalent flat form of the
//     corresponding theorem, and evaluates the flat form with the extended
//     merge-join (over the whole inner where no range order applies, and
//     with the naive evaluator for shapes outside the paper's classes).
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
	// (default 256 pages = the paper's 2 MB). The sweeps are not bounded
	// by it: every window holds both of its inputs in memory.
	SortMemPages int

	// DisableJoinReorder turns off the dynamic-programming join ordering
	// and keeps the syntactic relation order (ablation switch).
	DisableJoinReorder bool

	// Parallelism is the worker count for the join sweeps and for sort run
	// generation: 0 means exec.DefaultParallelism()
	// (GOMAXPROCS), 1 forces fully serial execution.
	Parallelism int

	// Sort-order cache state; see sortcache.go for the keying and
	// invalidation contract. All maps are lazily initialized.
	sortMem  map[sortKey]*memSortEntry
	sortHeap map[sortKey]*heapSortEntry
	sortSeen map[sortKey]uint64 // heap version of an order's first, streamed sort

	// streams are the streamed external sorts of the running evaluation,
	// closed when it ends (see sortstream.go).
	streams []*sortedStream

	// ctx, when non-nil, is observed by the leaf scans and the running
	// sweeps of every evaluation (set for the duration of a *Context
	// evaluation call).
	ctx context.Context

	// snap, when non-nil, is the snapshot the current evaluation reads
	// under: heap scans are bounded to the snapshot's committed tuple
	// counts (see snapshot.go). Set for the duration of one statement (or
	// one transaction's statements); nil means live reads.
	snap *Snapshot

	// analyze, when non-nil, is the EXPLAIN ANALYZE collection the run
	// path attaches per-operator stats nodes to (set for the duration of
	// an *Analyze evaluation call).
	analyze *ExecStats

	// Work is the running total of the work every operator the environment
	// ran counted (comparisons, degree evaluations, sort-cache and index
	// traffic, kernel tuples, …). Outside EXPLAIN ANALYZE operators count
	// into it directly; an analyzed statement's tree is added to it when
	// the statement ends. Its rows-out, pool and wall-time fields carry no
	// total and are not to be read.
	Work *exec.OpStats
	// Phases attributes evaluation work to phases; the experiments use it
	// for the paper's Table 3 time breakdown.
	Phases PhaseStats
}

// PhaseStats attributes evaluation work to phases.
type PhaseStats struct {
	SortWall time.Duration // wall time spent sorting (run generation + merging)
	SortIOs  int64         // physical page I/Os performed by sorts
}

// ResetStats clears the accumulated counters and phase statistics.
func (e *Env) ResetStats() {
	e.Work = exec.NewOpStats("total", "")
	e.Phases = PhaseStats{}
}

// NewEnv builds an environment over a catalog (with on-disk relations and
// its linguistic terms).
func NewEnv(cat *catalog.Catalog) *Env {
	e := &Env{cat: cat, Work: exec.NewOpStats("total", "")}
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

// withContext installs ctx as the evaluation context and returns the
// restore function for the caller to defer.
func (e *Env) withContext(ctx context.Context) func() {
	prev := e.ctx
	e.ctx = ctx
	return func() { e.ctx = prev }
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

// ReleaseSortCache drops the environment's cached sort orders, deleting
// the sorted temporary heap files held by the external side of the cache.
// Sessions forked off a long-running database call it on close so
// per-connection caches do not accumulate temporary files.
func (e *Env) ReleaseSortCache() {
	for _, ent := range e.sortHeap {
		_ = ent.sorted.Drop() // best-effort cleanup
	}
	e.sortHeap = nil
	e.sortMem = nil
	e.sortSeen = nil
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

// forEach drains src into fn.
func forEach(src exec.Source, fn func(frel.Tuple) error) error {
	it, err := src.Open()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		b, ok := it.NextBatch()
		if !ok {
			return it.Err()
		}
		for _, t := range b {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
}

// gather drains a sort input that is not a base relation (a filtered scan,
// a join's intermediate result). While its encoded size stays within the
// sort memory the tuples are kept; the moment it exceeds it, they move to
// a temporary heap file that takes the rest as well. Exactly one of the
// returns is set.
func (e *Env) gather(src exec.Source) (tuples []frel.Tuple, spilled *storage.HeapFile, err error) {
	schema := src.Schema()
	budget, bytes := e.SortMemPages*storage.PageSize, 0
	err = forEach(src, func(t frel.Tuple) error {
		if spilled != nil {
			return spilled.Append(t)
		}
		tuples = append(tuples, t)
		if bytes += frel.EncodedSize(schema, t); bytes < budget {
			return nil
		}
		h, err := e.cat.Manager().CreateTemp(schema)
		if err != nil {
			return err
		}
		spilled = h
		for _, u := range tuples {
			if err := spilled.Append(u); err != nil {
				return err
			}
		}
		tuples = nil
		return nil
	})
	if err != nil {
		if spilled != nil {
			_ = spilled.Drop() // best-effort cleanup; the drain's error is the one to report
		}
		return nil, nil, err
	}
	return tuples, spilled, nil
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
// not touch tuples: the wrapped source's iterator, keys included, is
// served as it is.
type renameSource struct {
	exec.Source
	schema *frel.Schema
}

func (r *renameSource) Schema() *frel.Schema { return r.schema }

// sortSource returns src sorted on attr. Plain scans of base relations go
// through the sort-order cache (see sortcache.go): a repeat sort of an
// unmodified relation is served from the cached sorted copy without
// re-sorting, a cold sort of a relation carrying a persistent order index
// on the attribute is served from the index (see indexscan.go) without
// sorting at all, and any other cold sort is an external sort of the heap
// whose final merge feeds the consumer, copied into the cache as it is
// pulled when the order is requested a second time. Any other input is
// sorted in memory when it fits the sort memory and externally, streamed
// the same way, otherwise.
func (e *Env) sortSource(src exec.Source, attr string) (exec.Source, error) {
	order, err := extsort.OrderBy(src.Schema(), attr)
	if err != nil {
		return nil, err
	}
	attrIdx := order.Attr
	if base := baseScan(src); base != nil {
		key := sortKey{heap: base.Heap, attr: attrIdx}
		version := e.heapVersion(base.Heap)
		// An order loaded from a persistent index lives in the memory
		// side of the cache; repeat sorts of the unmodified heap replay
		// it without touching the index again.
		if ent, ok := e.sortMem[key]; ok && ent.version == version {
			rel := &frel.Relation{Schema: src.Schema(), Tuples: ent.tuples}
			return e.cacheHit(attr, exec.NewKeyedMemSource(rel, ent.keys), src), nil
		}
		if ent, ok := e.sortHeap[key]; ok && ent.version == version {
			return e.cacheHit(attr, &renameSource{Source: exec.NewHeapSource(ent.sorted), schema: src.Schema()}, src), nil
		}
		if out, ok, err := e.indexSorted(src, base, attr, order); err != nil {
			return nil, err
		} else if ok {
			return out, nil
		}
		// A plain base-heap scan needs no pre-sort spill — the spill would
		// be a verbatim copy of the heap — so the sorter reads the base
		// directly, bounded by the scan's snapshot limit.
		admit := e.admitHeapSort(key, version)
		out, node, err := e.streamSort(attr, src.Schema(), base.Heap, base.Limit, order)
		if err != nil {
			return nil, err
		}
		node.CacheMisses.Add(1)
		// Keyed by the version the evaluation saw: a bounded snapshot
		// scan's sorted copy must only serve readers of that snapshot
		// state, never the live (possibly further-appended) heap.
		if admit {
			if err := out.copyTo(key, version); err != nil {
				out.Close()
				return nil, err
			}
		}
		return e.attach(node, exec.WithContext(e.ctx, out), src), nil
	}

	// Not a base relation: the size of the input decides. One that fits
	// the sort memory is sorted where it is and served with its key
	// column, like a cached order; a larger one goes through the external
	// sorter, whose runs hold all of it once they are made.
	tuples, spilled, err := e.gather(src)
	if err != nil {
		return nil, err
	}
	if spilled != nil {
		out, node, err := e.streamSort(attr, src.Schema(), spilled, -1, order)
		if derr := spilled.Drop(); err == nil && derr != nil {
			out.Close()
			err = derr
		}
		if err != nil {
			return nil, err
		}
		return e.attach(node, exec.WithContext(e.ctx, out), src), nil
	}
	rel := &frel.Relation{Schema: src.Schema(), Tuples: tuples}
	start := time.Now()
	cmp, err := extsort.SortRelation(rel, order)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	e.Phases.SortWall += elapsed
	node := e.newNode("sort", attr)
	node.Comparisons.Add(cmp)
	node.WallNanos.Add(elapsed.Nanoseconds())
	return e.attach(node, exec.NewKeyedMemSource(rel, frel.SupportKeys(tuples, attrIdx)), src), nil
}

// cacheHit serves a sort of src on attr from the cached order out.
func (e *Env) cacheHit(attr string, out, src exec.Source) exec.Source {
	node := e.newNode("sort", attr)
	node.CacheHits.Add(1)
	return e.attach(node, exec.WithContext(e.ctx, out), src)
}

// streamSort sorts the first limit tuples of h (limit < 0: all) up to the
// final merge and returns that merge as a source of schema, with the sort
// node its work is counted in. Run generation and the merge passes before
// the final one run here, and their wall time and page I/O count toward
// the environment's sort phase. The source is closed, and its runs
// dropped, when its consumer closes it or at the latest when the
// evaluation ends.
func (e *Env) streamSort(attr string, schema *frel.Schema, h *storage.HeapFile, limit int64, order extsort.Order) (*sortedStream, *exec.OpStats, error) {
	mgr := e.cat.Manager()
	start, ios := time.Now(), mgr.Stats().IO()
	str, err := extsort.NewSorter(mgr, e.SortMemPages).WithParallelism(e.workers()).Stream(h, limit, order)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	e.Phases.SortIOs += mgr.Stats().IO() - ios
	e.Phases.SortWall += elapsed
	st := str.Stats()
	node := e.newNode("sort", attr)
	node.SortRuns.Add(int64(st.Runs))
	node.MergePasses.Add(int64(st.MergePasses))
	node.SpillBytes.Add(st.SpillBytes)
	node.Comparisons.Add(st.Comparisons)
	node.WallNanos.Add(elapsed.Nanoseconds())
	out := &sortedStream{e: e, schema: schema, attr: order.Attr, str: str, node: node, counted: st.Comparisons}
	e.streams = append(e.streams, out)
	return out, node, nil
}
