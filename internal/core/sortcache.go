package core

import (
	"time"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// The sort-order cache. Every merge-join (and group-aggregate join) input
// must be sorted by the Definition 3.1 interval order, and the paper's
// workloads sort the same base relations on the same attributes query
// after query. The environment therefore caches, per (base relation,
// attribute, order), the sorted permutation together with the flat
// support-interval key column the batched merge-join window reads, and
// reuses it as long as the base relation has not been mutated.
//
// Keying and invalidation contract:
//
//   - A cache entry is keyed by the identity (pointer) of the base
//     relation — the registered *frel.Relation or the catalog's
//     *storage.HeapFile — plus the resolved attribute index and the
//     total-order flag. Alias bindings resolve to the same base, so
//     FROM R and FROM R X share entries.
//   - Each entry records the base's version counter at build time. Every
//     mutating operation (Append, SortBy, DedupMax, Threshold on
//     relations; Append on heap files) bumps the counter, so a lookup
//     whose stored version disagrees with the live one is a miss and the
//     entry is rebuilt. Catalog reloads create a new heap-file pointer,
//     which simply never matches again.
//   - Only plain scans are cacheable: the source must unwrap to the base
//     itself (no filters or joins in between), since a filtered stream's
//     sorted order is not the base relation's.
//
// Entry counts are bounded by wholesale eviction (sortCacheMaxEntries);
// sorted heap files belonging to evicted entries are dropped best-effort.

const (
	// sortCacheMaxEntries bounds each of the two entry maps; exceeding it
	// wipes the map (simple, and workloads touch few distinct orders).
	sortCacheMaxEntries = 64
	// baseMapMaxEntries bounds the bookkeeping maps that track cacheable
	// base pointers and memoized alias wrappers.
	baseMapMaxEntries = 256
)

// sortKey identifies one cached sort order: the base relation (exactly one
// of mem/heap set), the resolved attribute index, and whether the
// tie-broken total order was requested.
type sortKey struct {
	mem   *frel.Relation
	heap  *storage.HeapFile
	attr  int
	total bool
}

// memSortEntry is a cached in-memory sort: the sorted tuple slice and its
// precomputed support-interval key column.
type memSortEntry struct {
	version uint64
	tuples  []frel.Tuple
	keys    []frel.SupportKey
}

// heapSortEntry is a cached external sort: the sorted temporary heap file,
// kept (not dropped) while fresh.
type heapSortEntry struct {
	version uint64
	sorted  *storage.HeapFile
}

// aliasEntry memoizes the alias wrapper built around a registered base
// relation, so repeated FROM R X queries resolve to one stable pointer
// (the sort cache keys on the base, but the wrapper must also stay
// current with the base's tuples).
type aliasEntry struct {
	base    *frel.Relation
	wrapper *frel.Relation
	version uint64
}

// noteMemBase records that rel (possibly an alias wrapper) reads the
// registered base relation base.
func (e *Env) noteMemBase(rel, base *frel.Relation) {
	if e.memBase == nil {
		e.memBase = make(map[*frel.Relation]*frel.Relation)
	} else if len(e.memBase) >= baseMapMaxEntries {
		e.memBase = make(map[*frel.Relation]*frel.Relation)
	}
	e.memBase[rel] = base
}

// noteHeap records that h is a catalog base relation — cacheable, as
// opposed to a temporary spill file.
func (e *Env) noteHeap(h *storage.HeapFile) {
	if e.heapSeen == nil {
		e.heapSeen = make(map[*storage.HeapFile]bool)
	} else if len(e.heapSeen) >= baseMapMaxEntries {
		e.heapSeen = make(map[*storage.HeapFile]bool)
	}
	e.heapSeen[h] = true
}

// aliasRel returns the memoized alias wrapper for base under aliasKey,
// refreshing its tuple slice when the base has been mutated since the
// wrapper was built.
func (e *Env) aliasRel(nameKey, aliasKey string, base *frel.Relation) *frel.Relation {
	if e.aliasMemo == nil {
		e.aliasMemo = make(map[string]*aliasEntry)
	}
	k := nameKey + "\x00" + aliasKey
	if ent, ok := e.aliasMemo[k]; ok && ent.base == base {
		if ent.version != base.Version() {
			ent.wrapper.Tuples = base.Tuples
			ent.wrapper.Bump()
			ent.version = base.Version()
		}
		return ent.wrapper
	}
	if len(e.aliasMemo) >= baseMapMaxEntries {
		e.aliasMemo = make(map[string]*aliasEntry)
	}
	w := &frel.Relation{Schema: base.Schema.WithName(aliasKey), Tuples: base.Tuples}
	e.aliasMemo[k] = &aliasEntry{base: base, wrapper: w, version: base.Version()}
	return w
}

// cacheableBase resolves src to a cacheable base relation: a plain scan of
// a registered in-memory relation or of a catalog heap file. Exactly one
// of the returns is non-nil on success.
func (e *Env) cacheableBase(src exec.Source) (memSrc *exec.MemSource, memBase *frel.Relation, heap *storage.HeapFile) {
	switch s := exec.Unwrap(src).(type) {
	case *exec.MemSource:
		if b, ok := e.memBase[s.Rel]; ok {
			return s, b, nil
		}
	case *exec.HeapSource:
		if e.heapSeen[s.Heap] {
			return nil, nil, s.Heap
		}
	case *renameSource:
		if hs, ok := exec.Unwrap(s.Source).(*exec.HeapSource); ok && e.heapSeen[hs.Heap] {
			return nil, nil, hs.Heap
		}
	}
	return nil, nil, nil
}

// heapScanLimit returns the snapshot bound of the plain heap scan src
// resolves to (-1 when the scan is unbounded), mirroring cacheableBase's
// unwrapping. Callers pass it to SortPrefix so sorting a base heap
// directly still sees only the snapshot's committed prefix.
func heapScanLimit(src exec.Source) int64 {
	switch s := exec.Unwrap(src).(type) {
	case *exec.HeapSource:
		return s.Limit
	case *renameSource:
		if hs, ok := exec.Unwrap(s.Source).(*exec.HeapSource); ok {
			return hs.Limit
		}
	}
	return -1
}

func (e *Env) storeMemSort(k sortKey, ent *memSortEntry) {
	if e.sortMem == nil || len(e.sortMem) >= sortCacheMaxEntries {
		e.sortMem = make(map[sortKey]*memSortEntry)
	}
	e.sortMem[k] = ent
}

func (e *Env) storeHeapSort(k sortKey, ent *heapSortEntry) {
	if e.sortHeap == nil {
		e.sortHeap = make(map[sortKey]*heapSortEntry)
	}
	if old, ok := e.sortHeap[k]; ok {
		_ = old.sorted.Drop() // stale sorted copy, best-effort cleanup
	} else if len(e.sortHeap) >= sortCacheMaxEntries {
		for _, o := range e.sortHeap {
			_ = o.sorted.Drop()
		}
		e.sortHeap = make(map[sortKey]*heapSortEntry)
	}
	e.sortHeap[k] = ent
}

// memSort serves src sorted on attr through the in-memory side of the
// sort cache: a hit replays the cached permutation (with its key column)
// without re-sorting; a miss sorts a shallow copy of the base's tuples,
// computes the keys, and stores both.
func (e *Env) memSort(src exec.Source, ms *exec.MemSource, base *frel.Relation, attr string, order extsort.Order) (exec.Source, error) {
	key := sortKey{mem: base, attr: order.Attr, total: order.Total}
	if ent, ok := e.sortMem[key]; ok && ent.version == base.Version() {
		rel := &frel.Relation{Schema: src.Schema(), Tuples: ent.tuples}
		return e.cacheHit(attr, exec.NewKeyedMemSource(rel, ent.keys), src), nil
	}
	tuples := append([]frel.Tuple(nil), ms.Rel.Tuples...)
	rel := &frel.Relation{Schema: src.Schema(), Tuples: tuples}
	start := time.Now()
	cmp, err := extsort.SortRelation(rel, order)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	e.Phases.SortWall += elapsed
	keys := frel.SupportKeys(tuples, order.Attr)
	e.storeMemSort(key, &memSortEntry{version: base.Version(), tuples: tuples, keys: keys})
	node := e.newNode("sort", attr)
	node.Comparisons.Add(cmp)
	node.WallNanos.Add(elapsed.Nanoseconds())
	node.CacheMisses.Add(1)
	return e.attach(node, exec.WithContext(e.ctx, exec.NewKeyedMemSource(rel, keys)), src), nil
}
