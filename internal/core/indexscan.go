package core

import (
	"math"
	"time"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// Serving sorted scans from persistent order indexes. When a relation
// carries an index on the requested attribute (see catalog.CreateIndex),
// the sort order is read from the index instead of being built by the
// external sorter: one scan of the entry file, the heap's decoded copy
// (shared with the relation's other cached orders at that version, or one
// bounded scan of the base heap), a tid permutation, and an in-memory
// stable re-sort of it when tuples were appended after the index was
// written. The permutation is held in the sort cache like any admitted
// order, so repeat queries replay it as ordinary cache hits; the sweep
// reading it builds its support keys itself, as for any other sorted
// input.

// indexSorted tries to serve base — a plain scan of a catalog heap, src
// being base under its context and alias wrappers — sorted by order from
// a persistent order index. ok is false when no index applies; the caller
// then falls back to sorting.
//
// The index holds the tids 0..n-1 in the stable (frel.Compare, tid)
// order. Of those, the reader keeps the tids below its visibility horizon
// (all of them, unless its snapshot predates the build), appends the tail
// of later tids in tid order, and stably re-sorts when there is a tail.
// Every tail tid exceeds every prefix tid, so equal keys meet in tid
// order and the stable re-sort yields exactly the engine's stable sort of
// the relation. The reader checks the index against the tuples it serves,
// so an index that is not that order — a corrupt file, or one written
// under an older order — is never served.
func (e *Env) indexSorted(src exec.Source, base *exec.HeapSource, attr string, order extsort.Order) (exec.Source, bool, error) {
	ix := e.cat.IndexForHeap(base.Heap, order.Attr)
	if ix == nil {
		return nil, false, nil
	}
	stats := e.cat.Manager().Stats()
	start, ios := time.Now(), stats.IO()
	horizon := visible(base)
	if horizon > math.MaxInt32 {
		return nil, false, nil // beyond what a tid permutation holds
	}
	tids, err := storage.ReadIndexEntries(ix.Heap())
	if err != nil {
		return nil, false, err
	}
	key := sortKey{heap: base.Heap, attr: order.Attr}
	version := e.heapVersion(base.Heap)
	defer e.recount()
	hc, cache, err := e.decoded(key, version, horizon, true)
	if hc == nil {
		// A concurrent writer moved the heap between the count and the
		// read; serve this query from the sort path instead.
		return nil, false, err
	}
	// The entry file must be a permutation of the tids 0..n-1, and the
	// tuples it lists below the horizon must come in the stable order of
	// their values: a corrupt or foreign file, or one listing tids of
	// contents the relation no longer has, is refused and the query sorts.
	n := uint64(len(tids))
	seen := make([]bool, n)
	perm := make([]int32, 0, horizon)
	for _, tid := range tids {
		if tid >= n || seen[tid] {
			return nil, false, nil
		}
		seen[tid] = true
		if tid >= uint64(horizon) {
			continue
		}
		if k := len(perm); k > 0 {
			last := perm[k-1]
			if c := frel.Compare(hc.tuples[last].Values[order.Attr], hc.tuples[tid].Values[order.Attr]); c > 0 || c == 0 && uint64(last) > tid {
				return nil, false, nil
			}
		}
		perm = append(perm, int32(tid))
	}
	// A permutation of 0..n-1 keeps exactly the tids below min(n, horizon):
	// the prefix. The tids after it are the tail.
	prefix := len(perm)
	for tid := prefix; tid < int(horizon); tid++ {
		perm = append(perm, int32(tid))
	}
	if prefix < len(perm) {
		if _, err := extsort.SortTids(base.Heap.Schema, hc.tuples, perm, order); err != nil {
			return nil, false, err
		}
	}
	if cache {
		e.storeSort(key, sortEntry{version: version, base: hc, perm: perm})
	}
	node := e.newNode("index", attr)
	node.IndexHits.Add(1)
	node.WallNanos.Add(time.Since(start).Nanoseconds())
	node.PageIOs.Add(stats.IO() - ios)
	out := &permSource{schema: src.Schema(), tuples: hc.tuples, perm: perm}
	return e.attach(node, exec.WithContext(e.ctx, out), src), true, nil
}
