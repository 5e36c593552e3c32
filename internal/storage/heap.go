package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
)

// Heap page layout:
//
//	[0:2]  uint16 record count
//	then records back to back, each: uint16 length + payload
//
// Records never span pages; the maximum record size is
// PageSize - pageHeader - recHeader bytes.
const (
	pageHeader = 2
	recHeader  = 2

	// MaxRecordSize is the largest serialized tuple a heap page can hold.
	MaxRecordSize = PageSize - pageHeader - recHeader
)

// HeapFile is an append-only file of serialized fuzzy tuples in page
// order. It is the on-disk representation of a fuzzy relation.
type HeapFile struct {
	Schema *frel.Schema
	pager  *Pager
	pool   *BufferPool

	// mgr and logName are set on every relation and index heap: appends are
	// logged before they touch pages and the touched frames are pinned
	// no-steal until commit. Temporary heaps stay unlogged (logName empty).
	mgr     *Manager
	logName string

	// tempMgr is set on manager-created temporary heaps: Drop discards
	// their dirty frames without write-back, removes the file and takes
	// it off that manager's live-temporary count.
	tempMgr *Manager

	// Geometry counters are atomic: the single writer mutates them while
	// snapshot readers load them to bound scans and validate caches.
	numPages  atomic.Int64
	numTuples atomic.Int64

	// committed is the tuple count as of the last commit publication, and
	// committedVer the mutation counter at that point. Together they are
	// the MVCC visibility horizon: a snapshot reader sees exactly the
	// first committed tuples (heaps are append-only, so a prefix is a
	// consistent state). Published under Manager.commitMu.
	committed    atomic.Int64
	committedVer atomic.Uint64

	// Append cursor, touched only by the single writer.
	lastPage PageID
	lastUsed int // bytes used in the last page (including header)
	buf      []byte

	// version counts mutations (appends and rollbacks); caches keyed by a
	// heap-file pointer (the engine's sort-order cache) compare versions
	// to detect staleness.
	version atomic.Uint64

	// stats holds the planner statistics for statsVersion. A relation
	// heap has them from its creation, or from its checkpoint entry when
	// reopened, and Append keeps them current; where neither supplied
	// them (or a rollback discarded them) Stats builds them with one scan.
	// statsMu makes them safe for concurrent readers (the server plans
	// read-only queries in parallel) and orders them against Append.
	statsMu      sync.Mutex
	stats        *frel.TableStats
	statsVersion uint64

	// recorded is the statistics encoding the log's checkpoint holds for
	// this heap, valid while the tuple count is recordedRows; nil when it
	// holds none. Guarded by statsMu.
	recorded     []byte
	recordedRows int64
}

// Stats returns the planner statistics of the file: the ones it was
// created or reopened with, kept current by Append, or, where there are
// none, the ones one scan builds. There are none for a heap whose
// checkpoint entry records none (a database from before entries carried
// statistics, a heap Open had to walk) and after a rollback.
func (h *HeapFile) Stats() (*frel.TableStats, error) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	ts, err := h.statsLocked()
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// StatsSnapshot returns an independent copy of the planner statistics,
// safe to hold across statements while the writer keeps appending (the
// shared object returned by Stats is mutated incrementally by Append).
// Estimates may include uncommitted rows; the planner only uses them for
// costing, never for answers.
func (h *HeapFile) StatsSnapshot() (*frel.TableStats, error) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	ts, err := h.statsLocked()
	if err != nil {
		return nil, err
	}
	return ts.Clone(), nil
}

// statsLocked returns current statistics, building them by a scan when
// there are none: the one path for missing statistics. Append counts a
// tuple and bumps the version under statsMu, so the scan sees exactly the
// tuples of the version it records.
func (h *HeapFile) statsLocked() (*frel.TableStats, error) {
	if h.stats != nil && h.statsVersion == h.version.Load() {
		return h.stats, nil
	}
	ts := frel.NewTableStats(len(h.Schema.Attrs))
	sc := h.ScanAt(h.numTuples.Load())
	defer sc.Close()
	for {
		t, ok := sc.Next()
		if !ok {
			break
		}
		ts.Observe(t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	h.stats, h.statsVersion = ts, h.version.Load()
	return ts, nil
}

// Version returns the file's mutation counter.
func (h *HeapFile) Version() uint64 { return h.version.Load() }

// CommittedTuples returns the number of tuples visible to a snapshot taken
// now: the count as of the last commit publication.
func (h *HeapFile) CommittedTuples() int64 { return h.committed.Load() }

// CommittedVersion returns the mutation counter as of the last commit
// publication.
func (h *HeapFile) CommittedVersion() uint64 { return h.committedVer.Load() }

// NewHeapFile creates an empty heap file backed by the given pager.
func NewHeapFile(schema *frel.Schema, pager *Pager, pool *BufferPool) *HeapFile {
	return &HeapFile{Schema: schema, pager: pager, pool: pool, lastPage: -1}
}

// adoptHeapState builds the heap of entry st over its file's pager: the
// geometry, so the file can be both scanned and appended to, and, for a
// relation heap, the statistics the entry yields.
func adoptHeapState(schema *frel.Schema, pager *Pager, pool *BufferPool, st heapState) *HeapFile {
	h := NewHeapFile(schema, pager, pool)
	h.numPages.Store(st.numPages)
	h.numTuples.Store(st.numTuples)
	// Everything on disk at open is committed work.
	h.committed.Store(st.numTuples)
	if st.numPages > 0 {
		h.lastPage = PageID(st.numPages - 1)
		h.lastUsed = st.lastUsed
	}
	if keepsStats(st.name) {
		if h.stats = st.openStats(schema); h.stats != nil && len(st.tail) == 0 {
			h.recorded, h.recordedRows = st.stats, st.numTuples
		}
	}
	return h
}

// Temp reports whether h is a temporary from CreateTemp (a sort run, a
// sorted copy, a spill) rather than a relation or index heap.
func (h *HeapFile) Temp() bool { return h.tempMgr != nil }

// NumTuples returns the number of tuples appended so far.
func (h *HeapFile) NumTuples() int64 { return h.numTuples.Load() }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int64 { return h.numPages.Load() }

// Bytes returns the total size of the file in bytes.
func (h *HeapFile) Bytes() int64 { return h.numPages.Load() * PageSize }

// Name returns the storage name of a relation or index heap (its file is
// Name()+".heap"), or "" for a temporary or dropped heap.
func (h *HeapFile) Name() string { return h.logName }

// Append serializes t and appends it to the file. On a logged heap the
// tuple bytes go to the write-ahead log first (inside the open transaction,
// or an autocommitted one that rolls back if the append fails) and the
// touched pages stay no-steal until the covering commit is durable.
func (h *HeapFile) Append(t frel.Tuple) error {
	var err error
	h.buf, err = frel.AppendTuple(h.buf[:0], h.Schema, t)
	if err != nil {
		return err
	}
	return h.appendRecord(h.buf, &t)
}

// AppendRaw appends an already-serialized record. It is the append entry
// point for files whose records are not tuples (order-index entries): the
// bytes go through the same write-ahead-log, page-write, and commit path
// as Append, but no tuple-level bookkeeping runs, so statistics the heap
// had are stale afterwards.
func (h *HeapFile) AppendRaw(rec []byte) error {
	return h.appendRecord(rec, nil)
}

// appendRecord appends one serialized record. t, when non-nil, is the
// decoded tuple the record encodes, used to maintain incremental planner
// statistics; raw (non-tuple) appends pass nil.
func (h *HeapFile) appendRecord(rec []byte, t *frel.Tuple) error {
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("storage: record of %d bytes exceeds max record size %d", len(rec), MaxRecordSize)
	}
	if h.logName == "" {
		return h.writeRecord(rec, t)
	}
	// Inside an open transaction a failure leaves it open: its owner rolls
	// it back, restoring every heap its earlier appends mutated.
	if tx := h.mgr.tx; tx != nil {
		return h.appendLogged(tx, rec, t)
	}
	tx, err := h.mgr.Begin()
	if err != nil {
		return err
	}
	if err := h.appendLogged(tx, rec, t); err != nil {
		return tx.Abort(err)
	}
	return tx.Commit()
}

// appendLogged logs one record inside tx, then writes it to the file.
func (h *HeapFile) appendLogged(tx *Tx, rec []byte, t *frel.Tuple) error {
	tx.touch(h)
	if err := h.mgr.wal.Append(tx.id, h.logName, h.numTuples.Load(), rec); err != nil {
		return err
	}
	return h.writeRecord(rec, t)
}

// writeRecord writes one record into the file's last page, or a new one
// where it does not fit. The pages of a logged heap stay no-steal until
// the covering commit is durable.
func (h *HeapFile) writeRecord(rec []byte, t *frel.Tuple) error {
	logged := h.logName != ""
	need := recHeader + len(rec)
	if h.lastPage < 0 || h.lastUsed+need > PageSize {
		f, err := h.pool.NewPage(h.pager)
		if err != nil {
			return err
		}
		h.lastPage = f.ID
		h.lastUsed = pageHeader
		h.numPages.Add(1)
		if logged {
			h.pool.MarkNoSteal(f)
		}
		h.pool.Unpin(f, true)
	}
	f, err := h.pool.Get(h.pager, h.lastPage)
	if err != nil {
		return err
	}
	f.Latch.Lock()
	count := binary.LittleEndian.Uint16(f.Data[0:2])
	binary.LittleEndian.PutUint16(f.Data[h.lastUsed:], uint16(len(rec)))
	copy(f.Data[h.lastUsed+recHeader:], rec)
	binary.LittleEndian.PutUint16(f.Data[0:2], count+1)
	f.Latch.Unlock()
	h.lastUsed += need
	h.statsMu.Lock()
	h.numTuples.Add(1)
	if v := h.version.Load(); t != nil && h.stats != nil && h.statsVersion == v {
		h.stats.Observe(*t)
		h.statsVersion = v + 1
	}
	h.version.Add(1)
	h.statsMu.Unlock()
	if logged {
		h.pool.MarkNoSteal(f)
	}
	h.pool.Unpin(f, true)
	return nil
}

// PageWriter appends records to an unlogged heap file a page at a time: it
// keeps the file's last page pinned while it fills it and unpins it once,
// when the next record does not fit or the writer is closed, where
// AppendRaw pins and unpins the page for every record. The pages it writes
// are the ones AppendRaw would: same layout, same page count. A writer
// holds at most one pin, and the page it holds is private to it: Close the
// writer before the file is scanned or dropped.
type PageWriter struct {
	h *HeapFile
	f *Frame // the pinned last page; nil when none is pinned
}

// PageWriter returns a page writer appending to h, which must be an
// unlogged temporary heap: a logged append must reach the log first,
// record by record.
func (h *HeapFile) PageWriter() (*PageWriter, error) {
	if h.logName != "" {
		return nil, fmt.Errorf("storage: page writer on logged heap %q", h.logName)
	}
	return &PageWriter{h: h}, nil
}

// Append appends one serialized record.
func (w *PageWriter) Append(rec []byte) error {
	h := w.h
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("storage: record of %d bytes exceeds max record size %d", len(rec), MaxRecordSize)
	}
	need := recHeader + len(rec)
	if h.lastPage < 0 || h.lastUsed+need > PageSize {
		w.Close()
		f, err := h.pool.NewPage(h.pager)
		if err != nil {
			return err
		}
		w.f = f
		h.lastPage = f.ID
		h.lastUsed = pageHeader
		h.numPages.Add(1)
	} else if w.f == nil {
		f, err := h.pool.Get(h.pager, h.lastPage)
		if err != nil {
			return err
		}
		w.f = f
	}
	page := w.f.Data
	binary.LittleEndian.PutUint16(page[h.lastUsed:], uint16(len(rec)))
	copy(page[h.lastUsed+recHeader:], rec)
	binary.LittleEndian.PutUint16(page[0:2], binary.LittleEndian.Uint16(page[0:2])+1)
	h.lastUsed += need
	h.numTuples.Add(1)
	h.version.Add(1)
	return nil
}

// Close unpins the page the writer holds, if any. A closed writer may
// append again; it pins the last page anew.
func (w *PageWriter) Close() {
	if w.f != nil {
		w.h.pool.Unpin(w.f, true)
		w.f = nil
	}
}

// AppendAll appends every tuple of an in-memory relation. Outside an open
// transaction a logged heap takes them as one transaction of its own (one
// fsync for the whole batch), which rolls back if an append fails.
func (h *HeapFile) AppendAll(r *frel.Relation) error {
	if h.logName == "" || h.mgr.tx != nil {
		return h.appendEach(r)
	}
	tx, err := h.mgr.Begin()
	if err != nil {
		return err
	}
	if err := h.appendEach(r); err != nil {
		return tx.Abort(err)
	}
	return tx.Commit()
}

func (h *HeapFile) appendEach(r *frel.Relation) error {
	for _, t := range r.Tuples {
		if err := h.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered dirty pages of this file to disk, forcing the
// write-ahead log first on a logged heap so no page overtakes its records.
func (h *HeapFile) Flush() error {
	if h.logName != "" {
		if err := h.mgr.wal.Sync(); err != nil {
			return err
		}
		h.pool.ClearNoSteal()
	}
	return h.pool.FlushAll()
}

// Sync flushes the backing file to stable storage.
func (h *HeapFile) Sync() error { return h.pager.Sync() }

// Drop deletes the file. A logged heap is first unregistered and
// checkpointed away, so that after the file is gone no log record or
// checkpoint base references it. A manager-created temp's dirty frames
// are discarded without write-back — flushing pages of a dead file would
// be wasted I/O.
func (h *HeapFile) Drop() error {
	if h.logName != "" {
		h.mgr.unregister(h.logName)
		h.logName = ""
		if err := h.mgr.Checkpoint(); err != nil {
			return err
		}
	}
	if h.tempMgr != nil {
		h.tempMgr.mu.Lock()
		h.tempMgr.liveTemps--
		h.tempMgr.mu.Unlock()
		if err := h.pool.DiscardPager(h.pager); err != nil {
			return err
		}
		return h.pager.Remove()
	}
	if err := h.pool.DropPager(h.pager); err != nil {
		return err
	}
	return h.pager.Remove()
}

// Scanner iterates the tuples of a heap file in storage order through the
// buffer pool, touching each page once (the access pattern the paper's
// cost analysis assumes).
//
// A scanner may run concurrently with the single writer: the page count is
// captured at creation and each page's bytes are copied out under one
// frame-latch acquisition, so record decoding runs lock-free on a private
// snapshot of the page. A bounded scanner (ScanAt) additionally stops at
// its snapshot's tuple count, so it only ever decodes records that were
// committed, and thus fully written, when the snapshot was taken.
type Scanner struct {
	h       *HeapFile
	pages   int64 // page count captured at creation
	limit   int64 // tuples still to return; -1 = unbounded
	read    int64 // records returned so far
	pageIdx int64
	page    []byte // copy of the current page; nil before the first page
	inPage  bool   // a page copy is loaded and not yet exhausted
	off     int
	remain  int // records remaining in the current page
	err     error
}

// Scan returns a scanner positioned before the first tuple, reading
// through the end of the file.
func (h *HeapFile) Scan() *Scanner {
	return &Scanner{h: h, pages: h.numPages.Load(), limit: -1}
}

// ScanAt returns a scanner over the first limit tuples only — the
// snapshot-read entry point: a reader that captured a committed tuple
// count sees exactly that prefix, regardless of what the writer appends
// (or rolls back) meanwhile.
func (h *HeapFile) ScanAt(limit int64) *Scanner {
	return &Scanner{h: h, pages: h.numPages.Load(), limit: limit}
}

// Next returns the next tuple, decoded from the record NextRaw returns.
// ok is false when the scan is exhausted or an error occurred; check Err
// afterwards.
func (s *Scanner) Next() (t frel.Tuple, ok bool) {
	rec, ok := s.NextRaw()
	if !ok {
		return frel.Tuple{}, false
	}
	t, _, err := frel.DecodeTuple(s.h.Schema, rec)
	if err != nil {
		s.err = err
		return frel.Tuple{}, false
	}
	return t, true
}

// yieldPool lets a goroutine waiting for the buffer pool in. A scan takes
// the pool mutex twice per page in a tight loop, and sync.Mutex leaves a
// contended lock with the goroutine that is running: without the yield a
// writer whose INSERT needs three pages waits out whole stretches of
// another session's scan (up to the mutex's 1 ms starvation threshold per
// page it needs). Yielding costs nothing when nobody else is runnable.
func yieldPool() { runtime.Gosched() }

// NextRaw returns the next record's raw bytes without decoding them as a
// tuple — the scan entry point for non-tuple files (order indexes) and
// for the external sort. The returned slice aliases the scanner's private
// page copy and is valid only until the next NextRaw/Next call. A record
// count or length that points outside the page stops the scan with a
// *CorruptPageError.
func (s *Scanner) NextRaw() ([]byte, bool) {
	for {
		if s.err != nil || s.limit == 0 {
			return nil, false
		}
		if !s.inPage {
			if s.pageIdx >= s.pages {
				return nil, false
			}
			f, err := s.h.pool.Get(s.h.pager, PageID(s.pageIdx))
			if err != nil {
				s.err = err
				return nil, false
			}
			if s.page == nil {
				s.page = make([]byte, PageSize)
			}
			f.Latch.RLock()
			copy(s.page, f.Data)
			f.Latch.RUnlock()
			s.h.pool.Unpin(f, false)
			yieldPool()
			s.inPage = true
			s.remain = int(binary.LittleEndian.Uint16(s.page[0:2]))
			s.off = pageHeader
		}
		if s.remain == 0 {
			s.inPage = false
			s.pageIdx++
			continue
		}
		start, end, ok := recordAt(s.page, s.off)
		if !ok {
			s.err = &CorruptPageError{Path: s.h.pager.Path(), Page: PageID(s.pageIdx)}
			return nil, false
		}
		rec := s.page[start:end]
		s.off = end
		s.remain--
		s.read++
		if s.limit > 0 {
			s.limit--
		}
		return rec, true
	}
}

// NextBatch fills dst (reset to length zero) with up to cap(dst) tuples
// and returns the filled slice. An empty result means the scan is
// exhausted or an error occurred; check Err afterwards. The returned
// slice aliases dst's backing array, so callers that retain tuples across
// calls must copy them out first. The tuples' values are decoded into one
// fresh arena per batch, sized to the tuples the batch can still take and
// the scan can still return: one allocation a batch, and values that are
// never recycled.
func (s *Scanner) NextBatch(dst []frel.Tuple) []frel.Tuple {
	dst = dst[:0]
	n := len(s.h.Schema.Attrs)
	var arena []frel.Value
	for len(dst) < cap(dst) {
		rec, ok := s.NextRaw()
		if !ok {
			break
		}
		if len(arena) < n {
			arena = make([]frel.Value, n*s.room(cap(dst)-len(dst)))
		}
		t, _, err := frel.DecodeTupleInto(s.h.Schema, rec, arena[:n:n])
		if err != nil {
			s.err = err
			break
		}
		arena = arena[n:]
		dst = append(dst, t)
	}
	return dst
}

// room returns how many of the next want tuples, counting the one NextRaw
// just returned, the scan can still return: its limit bounds a snapshot
// scan, the heap's tuple count a live one.
func (s *Scanner) room(want int) int {
	left := s.limit + 1
	if s.limit < 0 {
		left = s.h.numTuples.Load() - s.read + 1
	}
	return int(max(min(int64(want), left), 1))
}

// Close releases the scanner's resources. The scanner pins each page only
// while copying it out, so there is nothing pinned to release; Close is
// kept for symmetry and forward compatibility.
func (s *Scanner) Close() {
	s.inPage = false
	s.page = nil
}

// Err returns the first error the scanner encountered, if any.
func (s *Scanner) Err() error { return s.err }

// ReadAll materializes the whole heap file as an in-memory relation.
func (h *HeapFile) ReadAll() (*frel.Relation, error) {
	return h.readScanner(h.Scan())
}

func (h *HeapFile) readScanner(sc *Scanner) (*frel.Relation, error) {
	r := frel.NewRelation(h.Schema)
	defer sc.Close()
	for {
		t, ok := sc.Next()
		if !ok {
			break
		}
		r.Append(t)
	}
	return r, sc.Err()
}

// Manager creates heap files inside one directory, sharing a buffer pool,
// I/O statistics and a write-ahead log. It is the storage root of a
// database session: opening it replays any log left by a crash, and every
// non-temporary heap it creates or opens is logged.
type Manager struct {
	dir   string
	fs    FS
	pool  *BufferPool
	stats *Stats
	wal   *WAL

	mu    sync.Mutex // guards seq, heaps, recovered and liveTemps
	seq   int
	heaps map[string]*HeapFile // logged heaps by log name

	// recovered holds the post-recovery entry of every heap the log's
	// open found, until OpenHeap adopts it or CreateHeap replaces the file.
	recovered map[string]heapState

	// liveTemps counts the temporary heaps CreateTemp handed out that have
	// not been dropped since.
	liveTemps int

	tx *Tx // the open transaction, if any (writers are serialized above)

	// commitMu serializes commit publication (updating every touched
	// heap's committed counters) against Snapshot, so a snapshot is never
	// a torn view of a half-published commit.
	commitMu sync.Mutex
}

// HeapSnap is one heap's visibility horizon inside a snapshot: the
// committed tuple count and the mutation counter it corresponds to.
type HeapSnap struct {
	Tuples  int64
	Version uint64
}

// Snapshot captures the committed state of every logged heap as an
// atomic cut: a reader scanning each heap with ScanAt(snap.Tuples) sees a
// consistent committed database state, including all-or-nothing
// transaction visibility.
func (m *Manager) Snapshot() map[*HeapFile]HeapSnap {
	m.mu.Lock()
	heaps := make([]*HeapFile, 0, len(m.heaps))
	for _, h := range m.heaps {
		heaps = append(heaps, h)
	}
	m.mu.Unlock()
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	snap := make(map[*HeapFile]HeapSnap, len(heaps))
	for _, h := range heaps {
		snap[h] = HeapSnap{Tuples: h.committed.Load(), Version: h.committedVer.Load()}
	}
	return snap
}

// ManagerOptions configures NewManagerOptions.
type ManagerOptions struct {
	// PoolPages is the buffer pool capacity in pages.
	PoolPages int
	// FS overrides the file system (default: the real one). Tests inject
	// FaultFS or MemFS here.
	FS FS
}

// NewManager creates a manager over dir, which must exist, with a buffer
// pool of the given page capacity, on the real file system. It panics
// where NewManagerOptions would fail: on an I/O error while it recovers
// dir or starts the log.
func NewManager(dir string, poolPages int) *Manager {
	m, err := NewManagerOptions(dir, ManagerOptions{PoolPages: poolPages})
	if err != nil {
		panic(err)
	}
	return m
}

// NewManagerOptions creates a manager over dir. It first recovers the
// directory from any existing log (redoing committed work, discarding the
// rest) and starts a fresh log checkpointed at the recovered state.
func NewManagerOptions(dir string, opts ManagerOptions) (*Manager, error) {
	fs := opts.FS
	if fs == nil {
		fs = OsFS{}
	}
	stats := &Stats{}
	m := &Manager{
		dir:   dir,
		fs:    fs,
		pool:  NewBufferPool(opts.PoolPages, stats),
		stats: stats,
		heaps: make(map[string]*HeapFile),
	}
	w, entries, err := openWAL(fs, dir)
	if err != nil {
		return nil, err
	}
	m.wal = w
	m.recovered = entries
	m.pool.SetRelease(w.Sync)
	return m, nil
}

// Pool returns the shared buffer pool.
func (m *Manager) Pool() *BufferPool { return m.pool }

// Stats returns the shared I/O statistics.
func (m *Manager) Stats() *Stats { return m.stats }

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// FS returns the file system the manager performs I/O through.
func (m *Manager) FS() FS { return m.fs }

// heapPath returns the path of the heap file that backs (or would back)
// the heap with the given storage name.
func (m *Manager) heapPath(name string) string {
	return filepath.Join(m.dir, name+".heap")
}

// Heap file name prefixes the storage layer tells apart: temporaries (sort
// runs, spills) are never logged, and neither they nor order-index heaps,
// whose records are not a relation's tuples, keep planner statistics.
const (
	tempPrefix = "tmp-"
	// IndexPrefix starts the storage name of every order-index heap.
	IndexPrefix = "idx-"
)

// keepsStats reports whether the heap of the given storage name keeps
// planner statistics: relation heaps do.
func keepsStats(name string) bool {
	return !strings.HasPrefix(name, tempPrefix) && !strings.HasPrefix(name, IndexPrefix)
}

// register marks h as covered by the write-ahead log, unless the heap is
// temporary. The file is now h's: any recovered entry of the name is
// stale.
func (m *Manager) register(name string, h *HeapFile) {
	if strings.HasPrefix(name, tempPrefix) {
		return
	}
	h.mgr = m
	h.logName = name
	m.mu.Lock()
	m.heaps[name] = h
	delete(m.recovered, name)
	m.mu.Unlock()
}

func (m *Manager) unregister(name string) {
	m.mu.Lock()
	delete(m.heaps, name)
	m.mu.Unlock()
}

// CreateHeap creates an empty heap file named name.heap in the managed
// directory, truncating a file left there. A relation heap starts with
// (empty) planner statistics, which Append keeps current from the first
// tuple on.
func (m *Manager) CreateHeap(name string, schema *frel.Schema) (*HeapFile, error) {
	m.mu.Lock()
	_, stale := m.recovered[name]
	m.mu.Unlock()
	p, err := OpenPagerFS(m.fs, m.heapPath(name), m.stats)
	if err != nil {
		return nil, err
	}
	h := NewHeapFile(schema, p, m.pool)
	if keepsStats(name) {
		h.stats = frel.NewTableStats(len(schema.Attrs))
	}
	m.register(name, h)
	if stale {
		// The log's checkpoint describes the file just truncated (one the
		// open found but nobody reopened, such as the heap of a relation
		// whose DROP crashed before removing it): record the empty heap
		// before redo could rewind the new one to the old file's geometry.
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// OpenHeap reopens an existing heap file named name.heap in the managed
// directory, recovering its tuple count and append cursor. The manager
// adopts the entry its log's open established for the file (and, for a
// relation heap, the statistics the entry yields); a file the open did
// not find, or one reopened already, is not there to open.
func (m *Manager) OpenHeap(name string, schema *frel.Schema) (*HeapFile, error) {
	m.mu.Lock()
	st, ok := m.recovered[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: open heap %s: %w", name, os.ErrNotExist)
	}
	p, err := OpenPagerExistingFS(m.fs, m.heapPath(name), m.stats)
	if err != nil {
		return nil, err
	}
	h := adoptHeapState(schema, p, m.pool, st)
	m.register(name, h)
	return h, nil
}

// Tx is an open transaction: a group of appends that commits atomically or
// rolls back in place. The first append to each heap captures the heap's
// pre-transaction geometry, so Rollback restores it without a restart; a
// transaction that never commits (a crash) simply does not survive
// recovery.
type Tx struct {
	m    *Manager
	id   uint64
	done bool

	touched []heapUndo // pre-transaction state of each heap appended to, in first-touch order
}

// heapUndo is the geometry of one heap before a transaction first touched
// it. Appends only ever extend the file and write past the last page's
// append cursor, so this is sufficient to roll back in place.
type heapUndo struct {
	h         *HeapFile
	numPages  int64
	numTuples int64
	lastPage  PageID
	lastUsed  int
}

// Begin opens a transaction. Only one transaction may be open at a time;
// appends outside any transaction autocommit individually.
func (m *Manager) Begin() (*Tx, error) {
	if m.tx != nil {
		return nil, fmt.Errorf("storage: transaction already open")
	}
	id, err := m.wal.Begin()
	if err != nil {
		return nil, err
	}
	tx := &Tx{m: m, id: id}
	m.tx = tx
	return tx, nil
}

// touch records that the transaction is about to append to h, capturing
// its undo state on the first touch. Called before any mutation of h.
func (tx *Tx) touch(h *HeapFile) {
	for _, u := range tx.touched {
		if u.h == h {
			return
		}
	}
	tx.touched = append(tx.touched, heapUndo{
		h:         h,
		numPages:  h.numPages.Load(),
		numTuples: h.numTuples.Load(),
		lastPage:  h.lastPage,
		lastUsed:  h.lastUsed,
	})
}

// Commit makes the transaction's appends durable: it logs the commit
// record, fsyncs the log (sharing the fsync with any commit already
// waiting on one), releases the no-steal pins, and publishes the
// new committed counts so subsequent snapshots see the whole transaction.
func (tx *Tx) Commit() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.m.tx = nil
	if err := tx.m.wal.Commit(tx.id); err != nil {
		return err
	}
	tx.m.pool.ClearNoSteal()
	tx.m.commitMu.Lock()
	for _, u := range tx.touched {
		u.h.committed.Store(u.h.numTuples.Load())
		u.h.committedVer.Store(u.h.version.Load())
	}
	tx.m.commitMu.Unlock()
	return nil
}

// Rollback undoes the transaction in place: it logs a rollback marker,
// restores each touched heap's pre-transaction geometry, cuts its last
// page back to the pre-transaction append cursor, discards the pool
// frames and file pages the transaction appended, and leaves the heaps
// bit-identical to their pre-transaction state. Concurrent snapshot readers are unaffected — their bounds never
// reach into the rolled-back region.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.m.tx = nil
	first := tx.m.wal.Rollback(tx.id)
	for _, u := range tx.touched {
		if err := u.h.rollbackTo(u); err != nil && first == nil {
			first = err
		}
	}
	tx.m.pool.ClearNoSteal()
	return first
}

// Abort rolls the transaction back after cause made it fail and returns
// cause, with the rollback's own failure attached if it has one.
func (tx *Tx) Abort(cause error) error {
	if err := tx.Rollback(); err != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", cause, err)
	}
	return cause
}

// rollbackTo restores the heap to the pre-transaction state u.
func (h *HeapFile) rollbackTo(u heapUndo) error {
	if err := h.pool.DiscardPagesFrom(h.pager, PageID(u.numPages)); err != nil {
		return err
	}
	if u.numPages > 0 {
		f, err := h.pool.Get(h.pager, u.lastPage)
		if err != nil {
			return err
		}
		f.Latch.Lock()
		cutPage(f.Data, u.lastUsed)
		f.Latch.Unlock()
		h.pool.Unpin(f, true)
	}
	if err := h.pager.Truncate(u.numPages); err != nil {
		return err
	}
	h.lastPage = u.lastPage
	if u.numPages == 0 {
		h.lastPage = -1
	}
	h.lastUsed = u.lastUsed
	h.numPages.Store(u.numPages)
	h.numTuples.Store(u.numTuples)
	h.statsMu.Lock()
	h.stats = nil // incrementally observed rolled-back tuples; rebuild lazily
	h.statsMu.Unlock()
	h.version.Add(1)
	return nil
}

// cutPage cuts a heap page back to the records before offset end: it
// recounts them and zeroes the rest of the page, which holds only what
// appends wrote past end.
func cutPage(page []byte, end int) {
	var n uint16
	for off := pageHeader; off < end; n++ {
		_, off, _ = recordAt(page, off)
	}
	binary.LittleEndian.PutUint16(page[0:2], n)
	clear(page[end:])
}

// Checkpoint makes every relation durable in its heap file and truncates
// the write-ahead log: log, then pages, then page files, then the new
// single-checkpoint log swapped in by an atomic rename. No transaction may
// be open.
func (m *Manager) Checkpoint() error {
	if m.tx != nil {
		return fmt.Errorf("storage: checkpoint with open transaction")
	}
	if err := m.wal.Sync(); err != nil {
		return err
	}
	if err := m.pool.FlushAll(); err != nil {
		return err
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.heaps))
	for n := range m.heaps {
		names = append(names, n)
	}
	m.mu.Unlock()
	sort.Strings(names)
	states := make([]heapState, 0, len(names))
	for _, n := range names {
		m.mu.Lock()
		h := m.heaps[n]
		m.mu.Unlock()
		if err := h.Sync(); err != nil {
			return err
		}
		st, err := h.state()
		if err != nil {
			return err
		}
		states = append(states, st)
	}
	m.pool.ClearNoSteal()
	return m.wal.rewrite(states)
}

// state captures the heap's current durable geometry for a checkpoint
// record, with the statistics to record: in this order of preference, the
// in-memory ones when they are current, the ones recorded before when the
// tuple count has not moved since, or none. The caller has flushed and
// synced the file.
func (h *HeapFile) state() (heapState, error) {
	st := heapState{
		name:      h.logName,
		numPages:  h.numPages.Load(),
		numTuples: h.numTuples.Load(),
	}
	h.statsMu.Lock()
	switch {
	case h.stats != nil && h.statsVersion == h.version.Load():
		h.recorded, h.recordedRows = frel.AppendStats(nil, h.stats), h.stats.Rows
	case h.recordedRows != st.numTuples:
		h.recorded = nil
	}
	st.stats = h.recorded
	h.statsMu.Unlock()
	if st.numPages > 0 {
		st.lastUsed = h.lastUsed
		f, err := h.pool.Get(h.pager, h.lastPage)
		if err != nil {
			return heapState{}, err
		}
		f.Latch.RLock()
		st.lastPage = append([]byte(nil), f.Data...)
		f.Latch.RUnlock()
		h.pool.Unpin(f, false)
	}
	return st, nil
}

// Close releases the manager's file handles: the write-ahead log and every
// registered heap. It does not checkpoint — the log replays on next open —
// and must not be used concurrently with other manager calls.
func (m *Manager) Close() error {
	var first error
	m.mu.Lock()
	heaps := make([]*HeapFile, 0, len(m.heaps))
	for _, h := range m.heaps {
		heaps = append(heaps, h)
	}
	m.mu.Unlock()
	for _, h := range heaps {
		if err := h.pager.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := m.wal.Close(); err != nil && first == nil {
		first = err
	}
	m.pool.Close()
	return first
}

// CreateTemp returns a temporary heap file (for sort runs and
// materialized intermediates). Callers should Drop it when done.
func (m *Manager) CreateTemp(schema *frel.Schema) (*HeapFile, error) {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	h, err := m.CreateHeap(fmt.Sprintf("%s%06d", tempPrefix, seq), schema)
	if err != nil {
		return nil, err
	}
	h.tempMgr = m
	m.mu.Lock()
	m.liveTemps++
	m.mu.Unlock()
	return h, nil
}

// LiveTemps returns the number of temporary heaps created by CreateTemp
// and not dropped since, whether or not the drop managed to remove the
// file: what an operation that cleans up after itself leaves unchanged.
func (m *Manager) LiveTemps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveTemps
}
