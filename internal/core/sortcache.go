package core

import (
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/storage"
)

// The sort-order cache. Every merge-join (and group-aggregate join) input
// must be sorted by the engine's order (frel.Compare), and the paper's
// workloads sort the same base relations on the same attributes query
// after query. The environment therefore caches, per (base relation,
// attribute), the sorted copy of the relation, and reuses it as long as
// the base relation has not been mutated.
//
// Keying and invalidation contract:
//
//   - A cache entry is keyed by the identity (pointer) of the base
//     relation's catalog *storage.HeapFile plus the resolved attribute
//     index. Alias bindings resolve to the same heap, so FROM R and
//     FROM R X share entries.
//   - Each entry records the heap's version counter at build time (the
//     snapshot's, under snapshot reads). Every append and rollback bumps
//     the counter, so a lookup whose stored version disagrees with the one
//     the evaluation sees is a miss and the entry is rebuilt. DELETE and
//     catalog reloads create a new heap-file pointer, which simply never
//     matches again.
//   - Only plain scans are cacheable: the source must unwrap to a scan of
//     the catalog heap itself (no filters or joins in between), since a
//     filtered stream's sorted order is not the base relation's.
//   - An external sort is admitted on its second request. The first
//     request for an order at a given heap version streams the sort's
//     final merge into its consumer and caches nothing but the version
//     (sortSeen); the second streams it the same way and copies each
//     record its consumer pulls into a sorted heap file, cached once the
//     consumer has drained the merge without error (dropped otherwise);
//     later requests hit. A statement that sorts a relation
//     once, as every statement of a fresh session does, therefore writes
//     its runs and nothing else. An order served by an index is cached on
//     its first request, since loading it wrote nothing.
//
// Entry counts are bounded by wholesale eviction (sortCacheMaxEntries);
// sorted heap files belonging to evicted entries are dropped best-effort.

// sortCacheMaxEntries bounds each of the entry maps; exceeding it
// wipes the map (simple, and workloads touch few distinct orders).
const sortCacheMaxEntries = 64

// sortKey identifies one cached sort order: the base relation's heap and
// the resolved attribute index.
type sortKey struct {
	heap *storage.HeapFile
	attr int
}

// memSortEntry is a cached in-memory sort, an order loaded from a
// persistent index: the sorted tuple slice and its precomputed
// support-interval key column.
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

// admitHeapSort reports whether a cold external sort of the order k at
// heap version v is to be cached: true when the order was requested at
// that version before, false (noting the request) for the first.
func (e *Env) admitHeapSort(k sortKey, v uint64) bool {
	if seen, ok := e.sortSeen[k]; ok && seen == v {
		return true
	}
	if e.sortSeen == nil || len(e.sortSeen) >= sortCacheMaxEntries {
		e.sortSeen = make(map[sortKey]uint64)
	}
	e.sortSeen[k] = v
	return false
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
