package core

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/storage"
)

// Serving sorted scans from persistent order indexes. When a relation
// carries an index on the requested attribute (see catalog.CreateIndex)
// and the index covers exactly the tuples the current evaluation may see,
// the sort order is read from the index instead of being built: one
// bounded scan of the base heap, one bounded scan of the entry file, and
// a permutation — no external sort, no run generation, no merge passes.
// The loaded order is stored in the in-memory side of the sort cache, so
// repeat queries replay it as ordinary cache hits.

// heapCount returns the number of tuples of h visible to the current
// evaluation: the snapshot's committed count under snapshot visibility,
// the live count otherwise. -1 means h is not visible at all (created
// after the snapshot was taken).
func (e *Env) heapCount(h *storage.HeapFile) int64 {
	if e.snap != nil && !e.snap.Live(h) {
		if sn, ok := e.snap.Lookup(h); ok {
			return sn.Tuples
		}
		return -1
	}
	return h.NumTuples()
}

// indexSorted tries to serve src — a plain scan of base heap — sorted on
// attr from a persistent order index. ok is false when no index applies:
// no index on the attribute, or the index does not cover the evaluation's
// visibility horizon (a bulk load bypassed maintenance, or the index was
// created after this transaction's snapshot). The caller then falls back
// to sorting.
//
// Consistency: base-tuple and index-entry appends commit in one storage
// transaction, so the committed counts of both files move together; equal
// counts at the same snapshot cut therefore mean the first n entries are
// exactly the permutation of the first n base tuples. Maintenance appends
// entries in base-heap position order, so the entry file is a sorted run
// followed by an unsorted tail of later inserts; a stable re-sort restores
// the global (support-begin, support-end, position) order because the
// tail's positions all exceed the run's.
func (e *Env) indexSorted(src exec.Source, base *storage.HeapFile, attr string, attrIdx int, total bool) (exec.Source, bool, error) {
	ix := e.cat.IndexForHeap(base, attrIdx)
	if ix == nil {
		return nil, false, nil
	}
	horizon := e.heapCount(base)
	if horizon < 0 || e.heapCount(ix.Heap()) != horizon {
		return nil, false, nil
	}
	entries, err := storage.ReadIndexEntries(ix.Heap(), horizon)
	if err != nil {
		return nil, false, err
	}
	rel, err := exec.Collect(exec.WithContext(e.ctx, exec.NewHeapSourceAt(base, horizon)))
	if err != nil {
		return nil, false, err
	}
	if int64(len(entries)) != horizon || int64(len(rel.Tuples)) != horizon {
		// A concurrent writer moved the files between the count check and
		// the reads; serve this query from the sort path instead.
		return nil, false, nil
	}
	sorted := true
	for i := 1; i < len(entries); i++ {
		if storage.CompareEntries(entries[i-1], entries[i]) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortStableFunc(entries, storage.CompareEntries)
	}
	if total {
		// The tie-broken total order: stable over the (A, D, position)
		// order, so remaining ties stay in base-heap position order —
		// exactly the engine's stable total sort of the relation.
		slices.SortStableFunc(entries, storage.CompareEntriesTotal)
	}
	tuples := make([]frel.Tuple, len(entries))
	for i, en := range entries {
		if en.Tid >= uint64(len(rel.Tuples)) {
			// Corrupt or foreign entry file: refuse to serve from it.
			return nil, false, nil
		}
		tuples[i] = rel.Tuples[en.Tid]
	}
	keys := frel.SupportKeys(tuples, attrIdx)
	key := sortKey{heap: base, attr: attrIdx, total: total}
	e.storeMemSort(key, &memSortEntry{version: e.heapVersion(base), tuples: tuples, keys: keys})
	srel := &frel.Relation{Schema: src.Schema(), Tuples: tuples}
	node := e.newNode("index", attr)
	node.IndexHits.Add(1)
	return e.attach(node, exec.WithContext(e.ctx, exec.NewKeyedMemSource(srel, keys)), src), true, nil
}
