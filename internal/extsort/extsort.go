// Package extsort implements a memory-bounded external merge sort over
// heap files of fuzzy tuples. It plays the role of the commercial Opt-Tech
// external sort used in the paper's experiments (Section 9): run generation
// within a caller-specified amount of memory followed by k-way merging.
//
// The extended merge-join sorts relations on the Definition 3.1 interval
// order of the join attribute; as the paper notes (Section 3), comparing
// two tuples may take two comparisons (begin points, then end points), and
// the sort is otherwise a standard O(n log n) external sort. With a memory
// budget comparable to the relation size the sort completes in one merge
// pass (two I/O passes over the data), matching the paper's linear-I/O
// assumption.
//
// The sort moves records, not tuples. Run generation copies the input's
// encoded records into one arena per run, reads each record's key
// (frel.DecodeSortKey), stably sorts the key column and writes the records
// verbatim in key order; the merge keeps one key per run in a binary heap
// whose ties go to the earlier run. Both steps are stable, so the output
// is the stable sort of the whole input, whatever the number of runs.
package extsort

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/storage"
)

// Order is a sort order of the engine: the Definition 3.1 interval order
// ≼ of attribute Attr (strings lexicographically). Total breaks ≼ ties by
// the full corner representation, as frel.CompareTotal does, so tuples
// with identical values end up adjacent: the order the group-aggregate
// join requires.
type Order struct {
	Attr  int
	Total bool
}

// OrderBy returns the order on the named attribute of schema.
func OrderBy(schema *frel.Schema, attr string, total bool) (Order, error) {
	i, err := schema.Resolve(attr)
	if err != nil {
		return Order{}, err
	}
	return Order{Attr: i, Total: total}, nil
}

// compareFunc orders two sort keys: it returns what frel.Compare (under a
// total order, frel.CompareTotal) returns for the values they were read
// from.
type compareFunc func(a, b *frel.SortKey) int

// comparator returns o's comparator over keys of schema's attribute.
func (o Order) comparator(schema *frel.Schema) (compareFunc, error) {
	if o.Attr < 0 || o.Attr >= len(schema.Attrs) {
		return nil, fmt.Errorf("extsort: order on attribute %d of schema %q with %d attributes", o.Attr, schema.Name, len(schema.Attrs))
	}
	switch {
	case schema.Attrs[o.Attr].Kind == frel.KindString:
		return compareStrings, nil
	case o.Total:
		return compareTotal, nil
	default:
		return compareSupports, nil
	}
}

func compareSupports(a, b *frel.SortKey) int {
	switch {
	case a.A < b.A:
		return -1
	case a.A > b.A:
		return 1
	case a.D < b.D:
		return -1
	case a.D > b.D:
		return 1
	default:
		return 0
	}
}

func compareTotal(a, b *frel.SortKey) int {
	if c := compareSupports(a, b); c != 0 {
		return c
	}
	switch {
	case a.B < b.B:
		return -1
	case a.B > b.B:
		return 1
	case a.C < b.C:
		return -1
	case a.C > b.C:
		return 1
	default:
		return 0
	}
}

func compareStrings(a, b *frel.SortKey) int { return bytes.Compare(a.Str, b.Str) }

// Stats reports the work a sort performed.
type Stats struct {
	Tuples      int64 // tuples sorted
	Runs        int   // initial sorted runs generated
	MergePasses int   // k-way merge passes over the data
	Comparisons int64 // calls to the order's comparator
	SpillBytes  int64 // tuple bytes written to temporary run files
}

// Sorter sorts heap files with a fixed memory budget.
type Sorter struct {
	mgr      *storage.Manager
	memPages int
	workers  int
}

// NewSorter creates a sorter that uses at most memPages pages worth of
// tuple memory for run generation and memPages-1 fan-in for merging
// (minimum 2 pages).
func NewSorter(mgr *storage.Manager, memPages int) *Sorter {
	if memPages < 2 {
		memPages = 2
	}
	return &Sorter{mgr: mgr, memPages: memPages, workers: 1}
}

// WithParallelism sets the worker count for run generation (sorting and
// writing initial runs): while the input scan stays sequential, up to
// workers full batches are sorted and written to their run files
// concurrently. Each in-flight batch holds its own memory budget, so peak
// tuple memory grows to workers × memPages; the worker count is capped
// below the buffer-pool capacity so concurrent run writers (one page pin
// each) can never exhaust the pool. workers <= 1 restores the serial
// behavior.
func (s *Sorter) WithParallelism(workers int) *Sorter {
	if workers < 1 {
		workers = 1
	}
	if cap := s.mgr.Pool().Capacity() - 1; workers > cap {
		workers = cap
	}
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
	return s
}

// Sort sorts src by o into a fresh temporary heap file. src is not
// modified. The returned file is owned by the caller (Drop when done).
func (s *Sorter) Sort(src *storage.HeapFile, o Order) (*storage.HeapFile, Stats, error) {
	return s.SortPrefix(src, -1, o)
}

// SortPrefix is Sort restricted to the first limit tuples of src
// (limit < 0 sorts everything). It lets callers sort a base heap in
// place of a spilled copy — the snapshot bound keeps a reader that
// captured a committed tuple count from sorting rows appended since.
// On error every temporary file the sort created is dropped.
func (s *Sorter) SortPrefix(src *storage.HeapFile, limit int64, o Order) (*storage.HeapFile, Stats, error) {
	var st Stats
	cmp, err := o.comparator(src.Schema)
	if err != nil {
		return nil, st, err
	}
	runs, err := s.makeRuns(src, limit, o.Attr, cmp, &st)
	if err != nil {
		return nil, st, err
	}
	if len(runs) == 0 {
		out, err := s.mgr.CreateTemp(src.Schema)
		return out, st, err
	}

	fanIn := max(s.memPages-1, 2)
	for len(runs) > 1 {
		st.MergePasses++
		var next []*storage.HeapFile
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := min(lo+fanIn, len(runs))
			merged, err := s.mergeRuns(runs[lo:hi], o.Attr, cmp, src.Schema, &st)
			if err != nil {
				_ = dropAll(runs[lo:])
				_ = dropAll(next)
				return nil, st, err
			}
			next = append(next, merged)
			if err := dropAll(runs[lo:hi]); err != nil {
				_ = dropAll(runs[hi:])
				_ = dropAll(next)
				return nil, st, err
			}
		}
		runs = next
	}
	return runs[0], st, nil
}

// dropAll drops every file, returning the first error.
func dropAll(files []*storage.HeapFile) error {
	var first error
	for _, f := range files {
		if err := f.Drop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// batch is the input of one run: its records back to back in arena,
// record i ending at ends[i]. keys and perm are the sort's working space.
// A batch is reused for a later run once its run is written.
type batch struct {
	arena []byte
	ends  []int
	keys  []frel.SortKey
	perm  []int32
}

// record returns the bytes of record i.
func (b *batch) record(i int32) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.arena[start:b.ends[i]]
}

// makeRuns splits src into sorted runs that each fit in the memory budget.
// With parallelism, run sorting and writing overlap the input scan (and
// each other) on a bounded worker pool; run order, contents, and the
// comparison count stay identical to the serial execution because batches
// are cut at the same points and sorted with the same stable sort.
func (s *Sorter) makeRuns(src *storage.HeapFile, limit int64, attr int, cmp compareFunc, st *Stats) ([]*storage.HeapFile, error) {
	budget := s.memPages * storage.PageSize
	// A batch never holds more than the budget plus one record, nor more
	// than the input: an arena of that size is filled without regrowing.
	arenaCap := int(min(int64(budget+storage.MaxRecordSize), src.Bytes()))
	var (
		runs        []*storage.HeapFile
		comparisons atomic.Int64
		wg          sync.WaitGroup
		errOnce     sync.Once
		firstErr    error
		// free holds the batches neither being filled nor being sorted:
		// with one more batch than workers, at most workers are in flight.
		free = make(chan *batch, s.workers+1)
	)
	for i := 0; i <= s.workers; i++ {
		free <- new(batch)
	}
	b := <-free

	flush := func() error {
		if len(b.ends) == 0 {
			return nil
		}
		// The run file is created here, in scan order, so the run list is
		// deterministic; only sorting and writing move to the worker.
		run, err := s.mgr.CreateTemp(src.Schema)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		st.Runs++
		st.SpillBytes += int64(len(b.arena))
		full := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := full.writeRun(run, src.Schema, attr, cmp)
			comparisons.Add(n)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
			}
			full.arena, full.ends = full.arena[:0], full.ends[:0]
			free <- full
		}()
		b = <-free // waits while every worker is busy
		return nil
	}

	sc := src.ScanAt(limit)
	defer sc.Close()
	var err error
	for {
		rec, ok := sc.NextRaw()
		if !ok {
			err = sc.Err()
			break
		}
		st.Tuples++
		if b.arena == nil {
			b.arena = make([]byte, 0, arenaCap)
		}
		b.arena = append(b.arena, rec...)
		b.ends = append(b.ends, len(b.arena))
		if len(b.arena) >= budget {
			if err = flush(); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = flush()
	}
	wg.Wait()
	st.Comparisons += comparisons.Load()
	if err == nil {
		err = firstErr
	}
	if err != nil {
		_ = dropAll(runs)
		return nil, err
	}
	return runs, nil
}

// writeRun stably sorts the batch's records on their keys of attribute
// attr and writes them to run in that order, returning the number of
// comparisons.
func (b *batch) writeRun(run *storage.HeapFile, schema *frel.Schema, attr int, cmp compareFunc) (int64, error) {
	b.keys = slices.Grow(b.keys[:0], len(b.ends))
	b.perm = slices.Grow(b.perm[:0], len(b.ends))
	for i := range b.ends {
		key, err := frel.DecodeSortKey(schema, b.record(int32(i)), attr)
		if err != nil {
			return 0, err
		}
		b.keys = append(b.keys, key)
		b.perm = append(b.perm, int32(i))
	}
	// Sorting positions instead of records moves 4 bytes a swap. The
	// algorithm (insertion-sorted blocks, then symMerge) is the one the
	// sort package's SliceStable runs, so the permutation and the
	// comparison count are the ones it would give.
	var n int64
	slices.SortStableFunc(b.perm, func(i, j int32) int {
		n++
		return cmp(&b.keys[i], &b.keys[j])
	})
	w, err := run.PageWriter()
	if err != nil {
		return n, err
	}
	defer w.Close()
	for _, i := range b.perm {
		if err := w.Append(b.record(i)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// head is a run's current record and its key in the merge heap. The
// record's bytes alias the run scanner's copy of the current page, which
// stays put until the scanner is advanced, and that happens only once the
// record is written.
type head struct {
	key frel.SortKey
	rec []byte
	run int
}

// mergeHeap is a binary min-heap of run heads ordered by key, ties by run
// index. Runs are in input order, so equal keys leave the merge in input
// order: the merge is stable.
type mergeHeap struct {
	heads       []head
	cmp         compareFunc
	comparisons int64
}

func (h *mergeHeap) less(i, j int) bool {
	h.comparisons++
	c := h.cmp(&h.heads[i].key, &h.heads[j].key)
	return c < 0 || c == 0 && h.heads[i].run < h.heads[j].run
}

// down restores the heap order below position i.
func (h *mergeHeap) down(i int) {
	n := len(h.heads)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.heads[i], h.heads[j] = h.heads[j], h.heads[i]
		i = j
	}
}

// mergeRuns merges the given sorted runs into one new temporary heap
// file, accounting the rewritten tuple bytes to st.SpillBytes. On error
// the new file is dropped; the runs are the caller's.
func (s *Sorter) mergeRuns(runs []*storage.HeapFile, attr int, cmp compareFunc, schema *frel.Schema, st *Stats) (*storage.HeapFile, error) {
	out, err := s.mgr.CreateTemp(schema)
	if err != nil {
		return nil, err
	}
	if err := merge(out, runs, attr, cmp, schema, st); err != nil {
		_ = out.Drop()
		return nil, err
	}
	return out, nil
}

// merge writes the merge of runs to out.
func merge(out *storage.HeapFile, runs []*storage.HeapFile, attr int, cmp compareFunc, schema *frel.Schema, st *Stats) error {
	w, err := out.PageWriter()
	if err != nil {
		return err
	}
	defer w.Close()
	scanners := make([]*storage.Scanner, len(runs))
	defer func() {
		for _, sc := range scanners {
			if sc != nil {
				sc.Close()
			}
		}
	}()
	// next reads the next record of hd's run into hd; ok is false at the
	// end of the run.
	next := func(hd *head) (ok bool, err error) {
		if hd.rec, ok = scanners[hd.run].NextRaw(); !ok {
			return false, scanners[hd.run].Err()
		}
		hd.key, err = frel.DecodeSortKey(schema, hd.rec, attr)
		return err == nil, err
	}
	h := &mergeHeap{heads: make([]head, 0, len(runs)), cmp: cmp}
	defer func() { st.Comparisons += h.comparisons }()
	for i, run := range runs {
		scanners[i] = run.Scan()
		hd := head{run: i}
		ok, err := next(&hd)
		if err != nil {
			return err
		}
		if ok {
			h.heads = append(h.heads, hd)
		}
	}
	for i := len(h.heads)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.heads) > 0 {
		top := &h.heads[0]
		if err := w.Append(top.rec); err != nil {
			return err
		}
		st.SpillBytes += int64(len(top.rec))
		ok, err := next(top)
		if err != nil {
			return err
		}
		if !ok {
			last := len(h.heads) - 1
			h.heads[0] = h.heads[last]
			h.heads = h.heads[:last]
		}
		h.down(0)
	}
	return nil
}

// SortRelation sorts an in-memory relation by o, in place, with the key
// and comparator of the external sort and the same stable algorithm, so
// the order and the comparison count are the ones an external sort of the
// relation's tuples would give. It returns the comparison count.
func SortRelation(r *frel.Relation, o Order) (int64, error) {
	cmp, err := o.comparator(r.Schema)
	if err != nil {
		return 0, err
	}
	keys := make([]frel.SortKey, len(r.Tuples))
	perm := make([]int32, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = frel.ValueSortKey(t.Values[o.Attr])
		perm[i] = int32(i)
	}
	var n int64
	slices.SortStableFunc(perm, func(i, j int32) int {
		n++
		return cmp(&keys[i], &keys[j])
	})
	sorted := make([]frel.Tuple, len(r.Tuples))
	for i, p := range perm {
		sorted[i] = r.Tuples[p]
	}
	copy(r.Tuples, sorted)
	return n, nil
}
