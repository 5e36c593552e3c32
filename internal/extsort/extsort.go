// Package extsort implements a memory-bounded external merge sort of
// encoded fuzzy tuples, read from a heap scan or any other record source
// (Records). It plays the role of the commercial Opt-Tech external sort
// used in the paper's experiments (Section 9): run generation within a
// caller-specified amount of memory followed by k-way merging.
//
// The extended merge-join sorts relations on the engine's one order,
// frel.Compare on the join attribute: the Definition 3.1 interval order,
// whose ties break so that identical values end up adjacent. As the paper
// notes (Section 3), comparing two tuples may take two comparisons (begin
// points, then end points), and the sort is otherwise a standard
// O(n log n) external sort. Its last merge pass is not written:
// Sorter.Stream hands the final merge to the caller a record at a time,
// and the batch in memory when the input ends takes part in it as the
// last run without ever reaching disk. An input that fits the sort memory
// therefore writes nothing, and one of up to about twice the sort memory
// writes its full runs once and reads them once, the single merge pass of
// the paper's cost story (Section 9).
//
// The sort moves records, not tuples. Run generation copies the input's
// encoded records into one arena per run, reads each record's key
// (frel.DecodeSortKey), sorts a permutation of the key column by (key,
// position) and writes the records verbatim in that order; the merge
// keeps one key per run in a binary heap whose ties go to the earlier
// run. Both steps are stable, so the output is the stable sort of the
// whole input, whatever the number of runs.
package extsort

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/storage"
)

// Order is the engine's sort order, frel.Compare, on attribute Attr.
type Order struct {
	Attr int
}

// OrderBy returns the order on the named attribute of schema.
func OrderBy(schema *frel.Schema, attr string) (Order, error) {
	i, err := schema.Resolve(attr)
	if err != nil {
		return Order{}, err
	}
	return Order{Attr: i}, nil
}

// check reports an order on an attribute schema does not have.
func (o Order) check(schema *frel.Schema) error {
	if o.Attr < 0 || o.Attr >= len(schema.Attrs) {
		return fmt.Errorf("extsort: order on attribute %d of schema %q with %d attributes", o.Attr, schema.Name, len(schema.Attrs))
	}
	return nil
}

// Stats reports the work a sort performed.
type Stats struct {
	Tuples      int64 // tuples sorted
	Runs        int   // initial sorted runs written to disk
	MergePasses int   // k-way merge passes over the data, the final one included when it merges runs
	Comparisons int64 // calls to the order's comparator
	SpillBytes  int64 // tuple bytes written to run files and merge passes before the final one
}

// Sorter sorts records with a fixed memory budget.
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

// Records is the input of a sort: encoded tuples (frel's record codec).
// NextRaw returns the next record, valid until the following call, and ok
// false at the end of the input or on an error, which Err then reports. A
// heap scan (*storage.Scanner) is one.
type Records interface {
	NextRaw() (rec []byte, ok bool)
	Err() error
}

// Stream sorts the records of src, tuples of schema, up to the final merge
// and returns that merge, which the caller pulls a record at a time. It
// reads src to its end before it returns. size, when not negative, bounds
// the input's bytes (a heap scan passes its heap's Bytes) and so the run
// arena a small input allocates. The batch being filled when the input
// ends is sorted and kept in memory as the last run, so an input that fits
// the sort memory writes nothing; merge passes over the runs on disk run
// only while the runs, that batch included, exceed the fan-in. The caller
// must Close the stream, drained or not, to drop its runs. On error every
// temporary file the sort created is dropped.
func (s *Sorter) Stream(schema *frel.Schema, src Records, size int64, o Order) (*Stream, error) {
	if err := o.check(schema); err != nil {
		return nil, err
	}
	str := &Stream{}
	runs, last, err := s.makeRuns(schema, src, size, o.Attr, &str.st)
	if err != nil {
		return nil, err
	}
	// The batch in memory is the last run of the final merge.
	memRuns := 0
	if last != nil {
		memRuns = 1
	}
	fanIn := max(s.memPages-1, 2)
	for len(runs)+memRuns > fanIn {
		str.st.MergePasses++
		var next []*storage.HeapFile
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := min(lo+fanIn, len(runs))
			merged, err := s.mergeRuns(runs[lo:hi], o.Attr, schema, &str.st)
			if err != nil {
				_ = dropAll(runs[lo:])
				_ = dropAll(next)
				return nil, err
			}
			next = append(next, merged)
			if err := dropAll(runs[lo:hi]); err != nil {
				_ = dropAll(runs[hi:])
				_ = dropAll(next)
				return nil, err
			}
		}
		runs = next
	}
	if len(runs)+memRuns > 1 {
		str.st.MergePasses++
	}
	if str.m, err = newMerger(runs, last, o.Attr, schema); err != nil {
		_ = dropAll(runs)
		return nil, err
	}
	str.runs, str.left = runs, str.st.Tuples
	return str, nil
}

// Stream is the final merge of a sort: the sorted records, served one at
// a time by Next. Its runs live until Close.
type Stream struct {
	m    *merger // nil once closed
	runs []*storage.HeapFile
	st   Stats
	left int64
	err  error
}

// Next returns the next record in sort order. The record aliases the
// stream's buffers and is valid only until the next Next or Close call.
// At the end of the stream, or on an error, ok is false; check Err.
func (s *Stream) Next() (rec []byte, ok bool) {
	if s.err != nil || s.m == nil {
		return nil, false
	}
	rec, ok, s.err = s.m.next()
	if ok {
		s.left--
	}
	return rec, ok
}

// Err returns the error that ended the stream, if any.
func (s *Stream) Err() error { return s.err }

// Remaining returns the number of records the stream has yet to serve.
func (s *Stream) Remaining() int64 { return s.left }

// Stats returns the sort's statistics so far: run generation, every merge
// pass, and the comparisons of the final merge up to the last record
// served. Runs and SpillBytes count what reached disk only.
func (s *Stream) Stats() Stats {
	st := s.st
	if s.m != nil {
		st.Comparisons += s.m.heap.comparisons
	}
	return st
}

// Close ends the stream and drops its runs. It is idempotent.
func (s *Stream) Close() error {
	if s.m == nil {
		return nil
	}
	s.st.Comparisons += s.m.heap.comparisons
	s.m = nil
	err := dropAll(s.runs)
	s.runs = nil
	return err
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
// Every full batch is written as a run; the batch being filled when the
// input ends is sorted and returned instead, nil when the input is empty.
// With parallelism, run sorting and writing overlap the input scan (and
// each other) on a bounded worker pool; run order, contents, and the
// comparison count stay identical to the serial execution because batches
// are cut at the same points and sorted with the same algorithm.
func (s *Sorter) makeRuns(schema *frel.Schema, src Records, size int64, attr int, st *Stats) ([]*storage.HeapFile, *batch, error) {
	budget := s.memPages * storage.PageSize
	// A batch never holds more than the budget plus one record, nor more
	// than the input: an arena of that size is filled without regrowing.
	// The arena of an input of unknown size (-1) grows as the input comes.
	arenaCap := int(min(int64(budget+storage.MaxRecordSize), max(size, 0)))
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
		// The run file is created here, in input order, so the run list is
		// deterministic; only sorting and writing move to the worker.
		run, err := s.mgr.CreateTemp(schema)
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
			n, err := full.writeRun(run, schema, attr)
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

	var err error
	for {
		rec, ok := src.NextRaw()
		if !ok {
			err = src.Err()
			break
		}
		// A full batch is written once the next record shows it is not
		// the last.
		if len(b.arena) >= budget {
			if err = flush(); err != nil {
				break
			}
		}
		st.Tuples++
		if b.arena == nil {
			b.arena = make([]byte, 0, arenaCap)
		}
		b.arena = append(b.arena, rec...)
		b.ends = append(b.ends, len(b.arena))
	}
	var last *batch
	if err == nil && len(b.ends) > 0 {
		var n int64
		n, err = b.sort(schema, attr)
		comparisons.Add(n)
		last = b
	}
	wg.Wait()
	st.Comparisons += comparisons.Load()
	if err == nil {
		err = firstErr
	}
	if err != nil {
		_ = dropAll(runs)
		return nil, nil, err
	}
	return runs, last, nil
}

// sort reads the key of attribute attr of every record of the batch and
// orders perm by key, ties by position, returning the number of
// comparisons. Position breaks every tie, so the permutation is the
// stable sort's, whatever algorithm finds it.
func (b *batch) sort(schema *frel.Schema, attr int) (int64, error) {
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
	return sortPositions(b.perm, b.keys), nil
}

// sortPositions orders perm, positions into keys, by (key, position) and
// returns the number of comparisons. Sorting positions instead of records
// moves 4 bytes a swap, and with the position as the last key pdqsort
// (slices.SortFunc) returns the stable permutation.
func sortPositions(perm []int32, keys []frel.SortKey) int64 {
	var n int64
	slices.SortFunc(perm, func(i, j int32) int {
		n++
		if c := frel.CompareKeys(&keys[i], &keys[j]); c != 0 {
			return c
		}
		return int(i - j)
	})
	return n
}

// writeRun sorts the batch's records on their keys of attribute attr and
// writes them to run in that order, returning the number of comparisons.
func (b *batch) writeRun(run *storage.HeapFile, schema *frel.Schema, attr int) (int64, error) {
	n, err := b.sort(schema, attr)
	if err != nil {
		return n, err
	}
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
// record's bytes alias the run scanner's copy of the current page (or the
// in-memory run's arena), which stays put until the run is advanced, and
// that happens only once the record is consumed.
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
	comparisons int64
}

func (h *mergeHeap) less(i, j int) bool {
	h.comparisons++
	c := frel.CompareKeys(&h.heads[i].key, &h.heads[j].key)
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

// merger is a k-way merge of sorted runs: the runs on disk, in input
// order, then optionally the sorted batch still in memory, which comes
// last in the input and so is the last run. It is the one merge loop of
// the sort; a merge pass drains it into a file, a Stream hands its
// records out.
type merger struct {
	schema   *frel.Schema
	attr     int
	scanners []*storage.Scanner // one per run on disk
	mem      *batch             // the in-memory last run, or nil
	memPos   int                // position in mem.perm of its next record
	heap     mergeHeap
	served   bool // the top head's record was handed out: advance its run first
}

// newMerger opens the merge of runs followed by mem (nil: none).
func newMerger(runs []*storage.HeapFile, mem *batch, attr int, schema *frel.Schema) (*merger, error) {
	m := &merger{schema: schema, attr: attr, mem: mem, scanners: make([]*storage.Scanner, len(runs))}
	for i, run := range runs {
		m.scanners[i] = run.Scan()
	}
	n := len(runs)
	if mem != nil {
		n++
	}
	m.heap = mergeHeap{heads: make([]head, 0, n)}
	for i := range n {
		hd := head{run: i}
		ok, err := m.read(&hd)
		if err != nil {
			return nil, err
		}
		if ok {
			m.heap.heads = append(m.heap.heads, hd)
		}
	}
	for i := len(m.heap.heads)/2 - 1; i >= 0; i-- {
		m.heap.down(i)
	}
	return m, nil
}

// read reads the next record of hd's run into hd; ok is false at the end
// of the run.
func (m *merger) read(hd *head) (ok bool, err error) {
	if hd.run == len(m.scanners) {
		if m.memPos == len(m.mem.perm) {
			return false, nil
		}
		i := m.mem.perm[m.memPos]
		m.memPos++
		hd.rec, hd.key = m.mem.record(i), m.mem.keys[i]
		return true, nil
	}
	sc := m.scanners[hd.run]
	if hd.rec, ok = sc.NextRaw(); !ok {
		return false, sc.Err()
	}
	hd.key, err = frel.DecodeSortKey(m.schema, hd.rec, m.attr)
	return err == nil, err
}

// next returns the merge's next record, valid until the next call.
func (m *merger) next() ([]byte, bool, error) {
	h := &m.heap
	if m.served {
		m.served = false
		ok, err := m.read(&h.heads[0])
		if err != nil {
			return nil, false, err
		}
		if !ok {
			last := len(h.heads) - 1
			h.heads[0] = h.heads[last]
			h.heads = h.heads[:last]
		}
		h.down(0)
	}
	if len(h.heads) == 0 {
		return nil, false, nil
	}
	m.served = true
	return h.heads[0].rec, true, nil
}

// drain writes the rest of the merge to out and returns the bytes
// written.
func (m *merger) drain(out *storage.HeapFile) (int64, error) {
	w, err := out.PageWriter()
	if err != nil {
		return 0, err
	}
	defer w.Close()
	var n int64
	for {
		rec, ok, err := m.next()
		if err != nil || !ok {
			return n, err
		}
		if err := w.Append(rec); err != nil {
			return n, err
		}
		n += int64(len(rec))
	}
}

// mergeRuns merges the given sorted runs into one new temporary heap
// file, accounting the rewritten tuple bytes to st.SpillBytes. On error
// the new file is dropped; the runs are the caller's.
func (s *Sorter) mergeRuns(runs []*storage.HeapFile, attr int, schema *frel.Schema, st *Stats) (*storage.HeapFile, error) {
	out, err := s.mgr.CreateTemp(schema)
	if err != nil {
		return nil, err
	}
	m, err := newMerger(runs, nil, attr, schema)
	var n int64
	if err == nil {
		n, err = m.drain(out)
		st.Comparisons += m.heap.comparisons
	}
	st.SpillBytes += n
	if err != nil {
		_ = out.Drop()
		return nil, err
	}
	return out, nil
}

// SortTids orders tids, positions into tuples (tuples of schema), by o:
// by their values' frel.Compare order, equal values by position. The key,
// comparator and algorithm are those of the external sort's runs, so
// sorting every position yields the relation's stable sort with the
// comparison count of a single-run external sort. The tuples are not
// moved; tids may list any subset of the positions, in any order. It
// returns the comparison count.
func SortTids(schema *frel.Schema, tuples []frel.Tuple, tids []int32, o Order) (int64, error) {
	if err := o.check(schema); err != nil {
		return 0, err
	}
	keys := make([]frel.SortKey, len(tuples))
	for i, t := range tuples {
		keys[i] = frel.ValueSortKey(t.Values[o.Attr])
	}
	return sortPositions(tids, keys), nil
}

// SortColumnTids is SortTids over tuples held as columns (cols, of
// schema): the same key, comparator and algorithm, so the same order and
// comparison count.
func SortColumnTids(schema *frel.Schema, cols *frel.Columns, tids []int32, o Order) (int64, error) {
	if err := o.check(schema); err != nil {
		return 0, err
	}
	keys := make([]frel.SortKey, cols.Len())
	for i := range keys {
		keys[i] = frel.ValueSortKey(cols.Value(i, o.Attr))
	}
	return sortPositions(tids, keys), nil
}
