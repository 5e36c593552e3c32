package core

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// sortedStream serves the final merge of an external sort
// (extsort.Stream) as a source: its consumer, a sweep, takes the rest of
// the merge decoded straight from the merged records into columns
// (Columns). The merge runs as the consumer pulls, and its page I/O and
// comparisons count toward the sort node (its wall time does through the
// node's Stated wrapper). A stream can be read once: a second Open is an
// error, not an empty input.
//
// The stream of an order the sort cache admits as a sorted copy (one whose
// decoded form would pass the cache budget) also writes each record it
// serves to that copy (copyTo). The copy enters the
// cache when the stream closes drained whole and without error; otherwise
// it is dropped.
type sortedStream struct {
	e       *Env
	schema  *frel.Schema
	attr    int
	str     *extsort.Stream
	node    *exec.OpStats
	counted int64 // comparisons of str already added to node
	opened  bool
	closed  bool
	failed  bool // serving the merge failed

	// The cached copy being written, its writer, its cache key and the
	// heap version it is the order of.
	copy    *storage.HeapFile
	w       *storage.PageWriter
	key     sortKey
	version uint64
}

func (s *sortedStream) Schema() *frel.Schema { return s.schema }

// Open implements exec.Source.
func (s *sortedStream) Open() (exec.BatchIterator, error) {
	if s.opened || s.closed {
		return nil, fmt.Errorf("core: the external sort of %s on %s was opened twice", s.schema.Name, s.schema.Attrs[s.attr].Name)
	}
	s.opened = true
	return &sortedStreamIterator{s: s}, nil
}

// copyTo makes the stream write the records it serves to a new sorted
// copy, cached under key at heap version version once complete.
func (s *sortedStream) copyTo(key sortKey, version uint64) error {
	h, err := s.e.cat.Manager().CreateTemp(key.heap.Schema)
	if err != nil {
		return err
	}
	if s.w, err = h.PageWriter(); err != nil {
		_ = h.Drop()
		return err
	}
	s.copy, s.key, s.version = h, key, version
	return nil
}

// Close drops the stream's runs, counts the final merge's comparisons and
// caches or drops the sorted copy being written. It is idempotent.
func (s *sortedStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.copy != nil {
		s.w.Close()
		if !s.failed && s.str.Remaining() == 0 && s.str.Err() == nil {
			s.e.storeSort(s.key, sortEntry{version: s.version, sorted: s.copy})
		} else {
			_ = s.copy.Drop() // best-effort cleanup of a partial copy
		}
		s.copy, s.w = nil, nil
	}
	_ = s.str.Close() // the runs are temporaries; nothing to report
	s.node.Comparisons.Add(s.str.Stats().Comparisons - s.counted)
}

// closeStreams closes the sorted streams opened since the first from of
// e.streams, the ones an evaluation whose consumers stopped early (an
// error, a cancellation) never closed. The outermost evaluation (from 0)
// also drops the sorted copies the cache retired while it ran.
func (e *Env) closeStreams(from int) {
	for _, s := range e.streams[from:] {
		s.Close()
	}
	clear(e.streams[from:])
	e.streams = e.streams[:from]
	if from == 0 {
		for _, h := range e.retired {
			if h != nil {
				_ = h.Drop() // best-effort cleanup
			}
		}
		e.retired = nil
	}
}

type sortedStreamIterator struct {
	s   *sortedStream
	err error
}

// NextBatch implements exec.BatchIterator: a sorted stream is served as
// columns only (Columns), which every consumer of a sort takes.
func (it *sortedStreamIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.err == nil {
		it.err = fmt.Errorf("core: the external sort of %s is served as columns only", it.s.schema.Name)
	}
	return nil, false
}

// Columns implements exec's columns hand-off: the rest of the merge,
// decoded straight from its records into columns (and each record written
// to the cached copy being made), counting the pull's page I/O toward the
// sort. The statement's context is polled once a batch. A failure leaves
// the columns partial and is reported by Err.
func (it *sortedStreamIterator) Columns() (*frel.Columns, int, bool) {
	s := it.s
	if s.closed || it.err != nil {
		return nil, -1, false
	}
	stats := s.e.cat.Manager().Stats()
	ios := stats.IO()
	defer func() { s.node.PageIOs.Add(stats.IO() - ios) }()
	cols := frel.NewColumns(s.schema, int(s.str.Remaining()))
	for i := 0; s.str.Remaining() > 0; i++ {
		if i%exec.BatchSize == 0 && s.e.ctx != nil {
			if it.err = s.e.ctx.Err(); it.err != nil {
				break
			}
		}
		rec, ok := s.str.Next()
		if !ok {
			it.err = s.str.Err()
			break
		}
		if it.err = cols.AppendRecord(s.schema, rec); it.err == nil && s.w != nil {
			it.err = s.w.Append(rec)
		}
		if it.err != nil {
			break
		}
	}
	if it.err == nil && s.str.Remaining() > 0 {
		it.err = fmt.Errorf("core: the external sort of %s ended %d records early", s.schema.Name, s.str.Remaining())
	}
	s.failed = it.err != nil
	return cols, -1, true
}

func (it *sortedStreamIterator) Remaining() int { return int(it.s.str.Remaining()) }
func (it *sortedStreamIterator) Err() error     { return it.err }
func (it *sortedStreamIterator) Close()         { it.s.Close() }

// tupleRecords is the input of an external sort of a source that is not a
// base relation: it encodes each tuple the source serves into one reused
// buffer, which run generation copies into its arena. The wall time and
// page reads of pulling the source are its operators' work, kept apart
// from the sort's. Page writes meanwhile are the sort's (its workers' runs,
// or run pages a read evicts): the source only reads, a sweep draining
// its own inputs when it opens.
type tupleRecords struct {
	it     exec.BatchIterator
	schema *frel.Schema
	stats  *storage.Stats
	batch  []frel.Tuple
	buf    []byte
	err    error
	wall   time.Duration
	reads  int64
}

// NextRaw implements extsort.Records.
func (r *tupleRecords) NextRaw() ([]byte, bool) {
	for len(r.batch) == 0 {
		if r.err != nil {
			return nil, false
		}
		start, reads := time.Now(), r.stats.Reads.Load()
		b, ok := r.it.NextBatch()
		r.wall += time.Since(start)
		r.reads += r.stats.Reads.Load() - reads
		if !ok {
			r.err = r.it.Err()
			return nil, false
		}
		r.batch = b
	}
	var err error
	if r.buf, err = frel.AppendTuple(r.buf[:0], r.schema, r.batch[0]); err != nil {
		r.err = err
		return nil, false
	}
	r.batch = r.batch[1:]
	return r.buf, true
}

// Err implements extsort.Records.
func (r *tupleRecords) Err() error { return r.err }
