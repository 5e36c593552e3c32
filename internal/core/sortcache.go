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
// attribute), the relation's sorted order, and reuses it as long as the
// base relation has not been mutated.
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
//     (sortEntry.streamed); the second streams it the same way and copies
//     each record its consumer pulls into a sorted heap file, cached once
//     the consumer has drained the merge without error (dropped
//     otherwise); later requests hit. A statement that sorts a relation
//     once, as every statement of a fresh session does, therefore writes
//     its runs and nothing else. An order served by an index is cached on
//     its first request, since loading it wrote nothing.
//   - An entry holds one order: storing an order replaces the one before,
//     retiring its sorted copy. A stale order stays until then.
//
// The entry count is bounded by wholesale eviction (sortCacheMaxEntries).
// A sorted copy leaving the cache is retired, and dropped (best-effort)
// once the running evaluation ends, never earlier: a sort the evaluation
// was already served from the cache may be a pending scan of it.

// sortCacheMaxEntries bounds the cache (workloads touch few distinct orders).
const sortCacheMaxEntries = 64

// sortKey identifies one cached sort order: the base relation's heap and
// the resolved attribute index.
type sortKey struct {
	heap *storage.HeapFile
	attr int
}

// sortEntry is the cache's state of one order: the order itself, once one
// is cached, and the heap version its last uncached request streamed.
type sortEntry struct {
	version uint64 // heap version the cached order was built at
	// The cached order: one loaded from a persistent index, held in memory
	// (tuples non-nil), or the sorted copy an admitted external sort wrote
	// (sorted non-nil).
	tuples []frel.Tuple
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
	case ent.tuples != nil:
		return exec.NewMemSource(&frel.Relation{Schema: schema, Tuples: ent.tuples})
	case ent.sorted != nil:
		return &renameSource{Source: exec.NewHeapSource(ent.sorted), schema: schema}
	}
	return nil
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

// storeSort makes order, its version with its tuples or its sorted copy,
// the cached order k, retiring the sorted copy it replaces.
func (e *Env) storeSort(k sortKey, order sortEntry) {
	ent := e.entry(k)
	e.retired = append(e.retired, ent.sorted)
	order.streamed, order.seen = ent.streamed, ent.seen
	*ent = order
}

// retireAll empties the cache, retiring its sorted copies: closeStreams
// drops them when the running evaluation ends.
func (e *Env) retireAll() {
	for _, ent := range e.sortCache {
		e.retired = append(e.retired, ent.sorted)
	}
	e.sortCache = nil
}
