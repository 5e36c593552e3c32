package core

import (
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// The sort-order cache. Every merge-join (and group-aggregate join) input
// must be sorted by the engine's order (frel.Compare), and the paper's
// workloads sort the same base relations on the same attributes query
// after query. The environment therefore caches, per (base relation,
// attribute), the relation's sorted order, and reuses it as long as the
// base relation has not been mutated.
//
// The cached form. A heap at a version is decoded at most once: one tuple
// slice in tid order over one value arena (heapCopy), bounded by the
// snapshot limit of the reader that decoded it. Every cached order of
// that heap at that version is a tid permutation ([]int32) over the one
// copy, so the orders of R on A and on B share R's decoded tuples. A hit
// gathers the permutation into a fresh tuple slice (permSource), which the
// sweep takes as it is (exec's collectSorted takes an in-memory input
// without a copy); it reads no page and decodes nothing. The decoded
// copies and permutations the caches of one database's sessions hold
// together stay within a byte budget of cacheBudgetFactor × SortMemPages
// pages (cacheBudget): every session forked from the database charges its
// cache to the one budget and gives its share back as its orders are
// replaced or dropped, and when it closes. An admitted order whose decoded
// form would pass the budget is cached as the sorted heap file its
// external sort's final merge wrote (sortEntry.sorted), read back through
// the buffer pool on every hit.
//
// Keying and invalidation contract:
//
//   - A cache entry is keyed by the identity (pointer) of the base
//     relation's catalog *storage.HeapFile plus the resolved attribute
//     index. Alias bindings resolve to the same heap, so FROM R and
//     FROM R X share entries.
//   - Each entry records the heap's version counter at build time (the
//     snapshot's, under snapshot reads), and a decoded copy the version it
//     holds. Every append and rollback bumps the counter, so a lookup
//     whose stored version disagrees with the one the evaluation sees is a
//     miss and the entry is rebuilt. DELETE and catalog reloads create a
//     new heap-file pointer, which simply never matches again.
//   - Only plain scans are cacheable: the source must unwrap to a scan of
//     the catalog heap itself (no filters or joins in between), since a
//     filtered stream's sorted order is not the base relation's.
//   - A sort is admitted on its second request. The first request for an
//     order at a given heap version streams the external sort's final
//     merge into its consumer and caches nothing but the version
//     (sortEntry.streamed). The second decodes the heap (or shares the
//     copy another order of the heap at that version already decoded),
//     sorts a tid permutation over it in memory with the external sort's
//     key and comparator (extsort.SortTids), and caches it. Over the
//     budget, the second request instead streams the external sort as the
//     first did and copies each record its consumer pulls into a sorted
//     heap file, cached once the consumer has drained the merge without
//     error (dropped otherwise). Later requests hit. A statement that
//     sorts a relation once, as every statement of a fresh session does,
//     therefore writes its runs and nothing else.
//   - An order served by an index is cached on its first request, since
//     loading it wrote nothing: its permutation is sorted over the same
//     shared decoded copy as an admitted order's, by the same builder
//     (decodedSort), starting from the index's entries instead of tid
//     order. The sort, not the file, decides the order: the tids an
//     entry file lists can cost or save comparisons, but never change an
//     answer, fail a statement or send it to the external sort. Over the
//     budget it is served uncached; the index is its persistent form.
//   - An entry holds one order: storing an order replaces the one before,
//     retiring its sorted copy. A stale sorted copy stays until then. A
//     stale permutation is dropped as soon as its heap is decoded, or an
//     order of it admitted, at another version (dropStale), and the copy
//     it permutes leaves the budget with it.
//
// The entry count is bounded by wholesale eviction (sortCacheMaxEntries).
// A sorted copy leaving the cache is retired, and dropped (best-effort)
// once the running evaluation ends, never earlier: a sort the evaluation
// was already served from the cache may be a pending scan of it. A decoded
// copy leaving the cache is garbage once the evaluations it served end.
// Cached tuples are shared by every order over them and every statement
// they serve, so nothing may write them (the exec buffer contract: batches
// are read-only to consumers).

// sortCacheMaxEntries bounds the cache (workloads touch few distinct orders).
const sortCacheMaxEntries = 64

// cacheBudgetFactor sizes the cache's byte budget in units of the sort
// memory: the decoded copies and tid permutations the caches of one
// database hold stay within cacheBudgetFactor × SortMemPages pages,
// 16 MiB at the default. It is the smallest power of two whose budget
// holds the benchmark's relations; a full budget costs about its own
// size in resident memory (DESIGN.md §9).
const cacheBudgetFactor = 8

// sortKey identifies one cached sort order: the base relation's heap and
// the resolved attribute index.
type sortKey struct {
	heap *storage.HeapFile
	attr int
}

// heapCopy is one decoded copy of a base relation: the first len(tuples)
// tuples of its heap in tid order, as heap version version holds them.
type heapCopy struct {
	version uint64
	tuples  []frel.Tuple
	bytes   int64 // the copy's share of the cache budget (decodedSize)
}

// sortEntry is the cache's state of one order: the order itself, once one
// is cached, and the heap version its last uncached request streamed.
type sortEntry struct {
	version uint64 // heap version the cached order was built at
	// The cached order: a tid permutation over a decoded copy of the heap
	// (perm non-nil, base the copy), or the sorted copy an admitted
	// external sort wrote when the decoded form would pass the budget
	// (sorted non-nil).
	base   *heapCopy
	perm   []int32
	sorted *storage.HeapFile

	// The heap version of the last request streamed uncached, if seen.
	streamed uint64
	seen     bool
}

// baseScan returns the plain scan of a base relation that src resolves
// to, through context and alias wrappers: a HeapSource over a heap that is
// not a temporary, carrying the heap and its snapshot bound. It returns
// nil for anything else, a filtered or joined stream or a scan of a sorted
// copy.
func baseScan(src exec.Source) *exec.HeapSource {
	s := exec.Unwrap(src)
	if r, ok := s.(*renameSource); ok {
		s = exec.Unwrap(r.Source)
	}
	if hs, ok := s.(*exec.HeapSource); ok && !hs.Heap.Temp() {
		return hs
	}
	return nil
}

// source returns the order the entry caches, as a source of schema, or nil
// when it caches no order of heap version v.
func (ent *sortEntry) source(v uint64, schema *frel.Schema) exec.Source {
	switch {
	case ent.version != v:
		return nil
	case ent.perm != nil:
		return &permSource{schema: schema, tuples: ent.base.tuples, perm: ent.perm}
	case ent.sorted != nil:
		return &renameSource{Source: exec.NewHeapSource(ent.sorted), schema: schema}
	}
	return nil
}

// permSource serves an order held as a tid permutation over decoded
// tuples: each Open gathers them into one fresh slice, served as an
// in-memory source that the sweep takes without copying.
type permSource struct {
	schema *frel.Schema
	tuples []frel.Tuple
	perm   []int32
}

func (p *permSource) Schema() *frel.Schema { return p.schema }

// Open implements exec.Source.
func (p *permSource) Open() (exec.BatchIterator, error) {
	out := make([]frel.Tuple, len(p.perm))
	for i, tid := range p.perm {
		out[i] = p.tuples[tid]
	}
	return exec.NewMemSource(&frel.Relation{Schema: p.schema, Tuples: out}).Open()
}

// entry returns the cache entry of order k, creating it; a new entry that
// finds the cache full empties it first.
func (e *Env) entry(k sortKey) *sortEntry {
	if ent, ok := e.sortCache[k]; ok {
		return ent
	}
	if len(e.sortCache) >= sortCacheMaxEntries {
		e.retireAll()
	}
	if e.sortCache == nil {
		e.sortCache = make(map[sortKey]*sortEntry)
	}
	ent := &sortEntry{}
	e.sortCache[k] = ent
	return ent
}

// storeSort makes order, its version with its permutation or its sorted
// copy, the cached order k, retiring the sorted copy it replaces.
func (e *Env) storeSort(k sortKey, order sortEntry) {
	ent := e.entry(k)
	e.retired = append(e.retired, ent.sorted)
	order.streamed, order.seen = ent.streamed, ent.seen
	*ent = order
	e.recount()
}

// retireAll empties the cache, retiring its sorted copies: closeStreams
// drops them when the running evaluation ends.
func (e *Env) retireAll() {
	for _, ent := range e.sortCache {
		e.retired = append(e.retired, ent.sorted)
	}
	e.sortCache = nil
	e.recount()
}

// decodedSize bounds the memory n decoded tuples of h take: their tuple
// headers and value arena, plus, when the schema holds strings, the heap's
// bytes as a bound on their payload.
func decodedSize(h *storage.HeapFile, n int64) int64 {
	size := n * int64(unsafe.Sizeof(frel.Tuple{})+uintptr(len(h.Schema.Attrs))*unsafe.Sizeof(frel.Value{}))
	for _, a := range h.Schema.Attrs {
		if a.Kind == frel.KindString {
			return size + h.Bytes()
		}
	}
	return size
}

// permBytes is the size of a tid permutation of n tuples.
func permBytes(n int64) int64 { return n * int64(unsafe.Sizeof(int32(0))) }

// cacheBudget is the account of one database's cached decoded copies and
// tid permutations. Every session forked from a database shares its base
// session's, so cacheBudgetFactor × SortMemPages pages bound what all its
// connections' caches hold together, not what each one holds.
type cacheBudget struct {
	mu   sync.Mutex
	held int64 // the sum of the sharing environments' shares
}

// charge sets e's share of its database's budget to bytes and reports
// whether it did: a share that grows must keep the total within limit.
func (b *cacheBudget) charge(e *Env, bytes, limit int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bytes > e.held && b.held-e.held+bytes > limit {
		return false
	}
	b.held += bytes - e.held
	e.held = bytes
	return true
}

// cacheLimit is the environment's cache budget in bytes.
func (e *Env) cacheLimit() int64 {
	return int64(cacheBudgetFactor) * int64(e.SortMemPages) * storage.PageSize
}

// recount sets e's share of the budget to what its cache holds.
func (e *Env) recount() {
	e.budget.charge(e, e.cachedBytes(sortKey{}), math.MaxInt64)
}

// cachedBytes returns what e's cache holds, leaving out order skip: every
// permutation, and every decoded copy once however many orders share it.
func (e *Env) cachedBytes(skip sortKey) int64 {
	var held int64
	var counted []*heapCopy
	for k, ent := range e.sortCache {
		if ent.perm == nil || k == skip {
			continue
		}
		held += permBytes(int64(len(ent.perm)))
		if !slices.Contains(counted, ent.base) {
			counted = append(counted, ent.base)
			held += ent.base.bytes
		}
	}
	return held
}

// dropStale drops the permutations of h's cached orders at heap versions
// other than v. An environment reads a heap's versions in increasing order
// (a snapshot is never older than the reads before it), so they can never
// be served again, and the copies they permute leave the budget with them.
func (e *Env) dropStale(h *storage.HeapFile, v uint64) {
	for k, ent := range e.sortCache {
		if k.heap == h && ent.perm != nil && ent.version != v {
			ent.base, ent.perm = nil, nil
		}
	}
}

// decoded returns the decoded copy of key's heap at version v holding its
// first n tuples (the one the heap's cached orders at v share, or a new
// decoding) and whether an order over it fits the cache budget. It drops
// the heap's orders at other versions first. The order fits when the
// environment's cache, with the order replacing order key, the copy
// counted once however many orders share it, stays within its database's
// budget beside the other sessions' caches; the environment's share is
// then charged for it, and the caller recounts the share once it has
// stored the order or failed to. A new copy is decoded only when it fits
// or force is set. hc is nil when none is, or when the heap holds fewer
// than n tuples.
func (e *Env) decoded(key sortKey, v uint64, n int64, force bool) (hc *heapCopy, fits bool, err error) {
	e.dropStale(key.heap, v)
	for k, ent := range e.sortCache {
		if ent.perm != nil && k != key && k.heap == key.heap && ent.base.version == v && int64(len(ent.base.tuples)) == n {
			hc = ent.base
		}
	}
	held := e.cachedBytes(key) + permBytes(n)
	if hc == nil {
		held += decodedSize(key.heap, n)
	}
	fits = e.budget.charge(e, held, e.cacheLimit())
	if hc == nil && (fits || force) {
		hc, err = e.decodeHeap(key.heap, v, n)
	}
	return hc, fits, err
}

// decodeHeap decodes the first n tuples of h, at heap version v, into one
// tuple slice over one value arena. It returns nil, and no error, when the
// heap holds fewer (a concurrent writer moved it under a live read).
func (e *Env) decodeHeap(h *storage.HeapFile, v uint64, n int64) (*heapCopy, error) {
	sc := h.ScanAt(n)
	defer sc.Close()
	width := len(h.Schema.Attrs)
	tuples := make([]frel.Tuple, n)
	arena := make([]frel.Value, int(n)*width)
	for i := range tuples {
		if i%exec.BatchSize == 0 && e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, ok := sc.NextRaw()
		if !ok {
			return nil, sc.Err()
		}
		t, _, err := frel.DecodeTupleInto(h.Schema, rec, arena[i*width:(i+1)*width:(i+1)*width])
		if err != nil {
			return nil, err
		}
		tuples[i] = t
	}
	return &heapCopy{version: v, tuples: tuples, bytes: decodedSize(h, n)}, nil
}

// decodedSort is the one builder of in-memory orders. It serves order key
// of base, at heap version v, as a tid permutation over the heap's decoded
// copy, sorted with the external sort's key and comparator
// (extsort.SortTids): from any starting permutation that yields the stable
// (frel.Compare, tid) order, and it confirms one already in that order in
// about n comparisons. An admitted sort (index nil) starts from tid order,
// and is refused when its decoded form would pass the cache budget. A load
// from an order index (index its entry file) starts from the entries below
// the scan's horizon, each once, then every other visible tid in tid
// order; over the budget it is served uncached. ok is false, for the
// caller to sort externally, when the heap no longer holds the tuples the
// scan sees or holds more than a tid permutation indexes.
func (e *Env) decodedSort(src exec.Source, base *exec.HeapSource, key sortKey, v uint64, attr string, index *storage.HeapFile) (exec.Source, bool, error) {
	n := base.Limit // the tuples the scan reads: its snapshot bound, or all
	if n < 0 {
		n = base.Heap.NumTuples()
	}
	if n > math.MaxInt32 {
		return nil, false, nil
	}
	stats := e.cat.Manager().Stats()
	start, ios := time.Now(), stats.IO()
	var entries []uint64
	if index != nil {
		var err error
		if entries, err = storage.ReadIndexEntries(index); err != nil {
			return nil, false, err
		}
	}
	defer e.recount()
	hc, fits, err := e.decoded(key, v, n, index != nil)
	if hc == nil || !fits && index == nil {
		return nil, false, err
	}
	perm := startingPerm(entries, n)
	cmps, err := extsort.SortTids(key.heap.Schema, hc.tuples, perm, extsort.Order{Attr: key.attr})
	if err != nil {
		return nil, false, err
	}
	if fits {
		e.storeSort(key, sortEntry{version: v, base: hc, perm: perm})
	}
	var node *exec.OpStats
	if index != nil {
		node = e.newNode("index", attr)
		node.IndexHits.Add(1)
	} else {
		node = e.newNode("sort", attr)
		node.CacheMisses.Add(1)
		node.Comparisons.Add(cmps)
	}
	node.WallNanos.Add(time.Since(start).Nanoseconds())
	node.PageIOs.Add(stats.IO() - ios)
	out := &permSource{schema: src.Schema(), tuples: hc.tuples, perm: perm}
	return e.attach(node, exec.WithContext(e.ctx, out), src), true, nil
}

// startingPerm returns the permutation of the tids 0..n-1 an in-memory sort
// starts from: the entries below n, each at its first listing, then every
// other tid in tid order.
func startingPerm(entries []uint64, n int64) []int32 {
	perm, listed := make([]int32, 0, n), make([]bool, n)
	for _, tid := range entries {
		if tid < uint64(n) && !listed[tid] {
			listed[tid] = true
			perm = append(perm, int32(tid))
		}
	}
	for tid := range int32(n) {
		if !listed[tid] {
			perm = append(perm, tid)
		}
	}
	return perm
}
