package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/frel"
)

// Write-ahead log.
//
// The log is a flat file of checksummed records:
//
//	[0:4]  uint32 CRC-32 (IEEE) of the body
//	[4:8]  uint32 body length
//	then the body: one type byte followed by the typed payload
//
// Integers inside payloads are uvarints. Append records carry the raw
// serialized tuple bytes (the frel wire format), so redo is a byte-level
// replay that needs no schema and reproduces membership degrees exactly.
//
// The log always begins with a checkpoint record holding, per relation,
// the durable heap geometry (page count, tuple count, append cursor) and a
// full image of the last page — the only heap page that is ever rewritten
// in place, so the image is what protects it from torn writes. After the
// entries comes one summary per entry, in the same order: a flags byte
// saying whether the entry vouches for the file's geometry and whether
// the heap's planner statistics (frel.AppendStats) follow, length-prefixed.
// A record without the summary section (a log written before summaries
// existed) vouches for nothing. Truncating the log means writing a new
// single-checkpoint log to a temporary file and renaming it over the old
// one.
//
// Recovery (see recoverWAL) parses the log until the first corrupt or
// truncated record, then for every relation that has at least one append
// record after the last checkpoint — committed or not — rewinds the heap
// file to the checkpoint geometry, restores the last-page image, and
// replays the appends of committed transactions in log order. Relations
// without append records are left exactly as found on disk. Transactions
// that logged a rollback record (or no commit record at all — a crash
// mid-transaction) are discarded the same way: redo replays only committed
// appends, so committed-prefix semantics hold for explicit multi-statement
// transactions exactly as for autocommitted ones.
//
// Open then derives each heap's post-recovery entry without walking it
// where it can: a replayed heap's geometry is what redo just wrote, and an
// untouched heap whose entry vouches for its geometry is adopted, with its
// statistics, once the file's size and last page match the entry (one page
// read). Any other heap is walked page header by page header. Every
// checkpoint vouches for all its entries: heap files change only through
// the log, and a rewrite (DELETE) writes a fresh heap under a new storage
// name instead of replacing a file.
const (
	walFileName = "wal"
	walTmpName  = "wal.tmp"

	walHeaderSize = 8
)

type walRecType byte

const (
	recBegin      walRecType = 1
	recAppend     walRecType = 2
	recCommit     walRecType = 3
	recCheckpoint walRecType = 4
	recRollback   walRecType = 5
)

// heapState is the durable geometry of one heap file at checkpoint time,
// with the summary the checkpoint records for it.
type heapState struct {
	name      string // log name = heap file base name (without ".heap")
	numPages  int64
	numTuples int64
	lastUsed  int    // bytes used in the last page, including its header
	lastPage  []byte // PageSize image of the last page; nil when numPages == 0

	// trusted: the entry vouches for the file's geometry, so Open may
	// adopt it instead of walking the file once size and last page match.
	// Read from a decoded checkpoint only: every checkpoint written sets
	// it, and only a log from before summaries existed lacks it.
	trusted bool
	// stats is the frel.AppendStats encoding of the statistics of the
	// heap's tuples, or nil when none are recorded. On an entry recovery
	// replayed appends onto, it describes the tuples before tail.
	stats []byte
	// tail holds the records redo replayed after the checkpoint, in file
	// order: OpenHeap observes them once the schema is known. In memory
	// only.
	tail [][]byte
}

// Summary flags of a checkpoint entry.
const (
	summaryTrusted byte = 1 << iota // the entry's geometry may be adopted
	summaryStats                    // statistics follow
)

// WAL is an append-only checksummed log over one database directory. It is
// safe for concurrent use; commits of concurrent transactions share fsyncs
// through a leader/follower group-commit protocol.
type WAL struct {
	fs   FS
	dir  string
	path string

	mu      sync.Mutex
	cond    *sync.Cond
	f       File
	off     int64 // append offset
	synced  int64 // offset known durable
	syncing bool  // a group-commit leader is inside fsync
	nextTx  uint64
	buf     []byte // record assembly scratch
	pbuf    []byte // payload assembly scratch
}

// openWAL recovers dir from any existing log, then starts a fresh log
// whose checkpoint base is the post-recovery on-disk state of every
// (non-temporary) heap file in dir. It returns those post-recovery
// entries by heap name, for OpenHeap to adopt.
func openWAL(fs FS, dir string) (*WAL, map[string]heapState, error) {
	rec, err := recoverWAL(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	// Temp heaps of a previous process are garbage after a crash (they are
	// never logged and their owners are gone); clear them before they can
	// be mistaken for data.
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: wal: list %s: %w", dir, err)
	}
	entries := make(map[string]heapState)
	var states []heapState
	for _, n := range names {
		if !strings.HasSuffix(n, ".heap") {
			continue
		}
		if strings.HasPrefix(n, tempPrefix) {
			if err := fs.Remove(filepath.Join(dir, n)); err != nil {
				return nil, nil, fmt.Errorf("storage: wal: clear stale temp %s: %w", n, err)
			}
			continue
		}
		name := strings.TrimSuffix(n, ".heap")
		st, ok := rec.redone[name]
		if !ok {
			st, ok = rec.base[name]
			ok = ok && st.trusted && intact(fs, dir, st)
		}
		if !ok {
			if st, err = readHeapState(fs, dir, name); err != nil {
				return nil, nil, err
			}
		}
		entries[name] = st
		if len(st.tail) > 0 {
			// The statistics describe the heap without its replayed tail,
			// which only OpenHeap can observe: the new log records none.
			st.stats, st.tail = nil, nil
		}
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	w := &WAL{fs: fs, dir: dir, path: filepath.Join(dir, walFileName)}
	w.cond = sync.NewCond(&w.mu)
	// A log that already is exactly the new checkpoint (a clean Close, or
	// an Open that wrote nothing since) was installed by a synced rename:
	// keep it rather than write, sync and rename the same bytes again.
	body := w.checkpointLog(states)
	if bytes.Equal(body, rec.log) {
		err = w.reopen(int64(len(body)))
	} else {
		err = w.install(body)
	}
	if err != nil {
		return nil, nil, err
	}
	return w, entries, nil
}

// intact reports whether the heap file still is what checkpoint entry st
// describes: its size is the recorded page count and its last page the
// recorded image. Heap files only grow at the end and rewrite only their
// last page, so an append the log does not cover changes one or the
// other.
func intact(fs FS, dir string, st heapState) bool {
	f, err := fs.OpenFile(filepath.Join(dir, st.name+".heap"), os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	if size, err := f.Size(); err != nil || size != st.numPages*PageSize {
		return false
	}
	if st.numPages == 0 {
		return true
	}
	page := make([]byte, PageSize)
	if _, err := f.ReadAt(page, (st.numPages-1)*PageSize); err != nil {
		return false
	}
	return bytes.Equal(page, st.lastPage)
}

// openStats returns the planner statistics entry st yields under schema:
// the recorded statistics with the replayed tail observed on top (empty
// statistics when every tuple of the heap is in the tail), or nil when
// the entry records none or they do not describe exactly the heap's
// tuples.
func (st *heapState) openStats(schema *frel.Schema) *frel.TableStats {
	var ts *frel.TableStats
	switch {
	case st.stats != nil:
		var err error
		if ts, err = frel.DecodeStats(st.stats); err != nil || len(ts.Attrs) != len(schema.Attrs) {
			return nil
		}
	case st.numTuples == int64(len(st.tail)):
		ts = frel.NewTableStats(len(schema.Attrs))
	default:
		return nil
	}
	for _, rec := range st.tail {
		t, _, err := frel.DecodeTuple(schema, rec)
		if err != nil {
			return nil
		}
		ts.Observe(t)
	}
	if ts.Rows != st.numTuples {
		return nil
	}
	return ts
}

// writeLocked appends one record. Callers hold w.mu.
func (w *WAL) writeLocked(typ walRecType, payload []byte) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	w.buf = append(w.buf, byte(typ))
	w.buf = append(w.buf, payload...)
	body := w.buf[walHeaderSize:]
	binary.LittleEndian.PutUint32(w.buf[0:4], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(w.buf[4:8], uint32(len(body)))
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.off += int64(len(w.buf))
	return nil
}

// Begin allocates a transaction ID and logs its begin record.
func (w *WAL) Begin() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextTx++
	id := w.nextTx
	w.pbuf = binary.AppendUvarint(w.pbuf[:0], id)
	return id, w.writeLocked(recBegin, w.pbuf)
}

// Append logs one tuple append: the relation's log name, the tuple's
// position seq in the relation, and its raw serialized bytes.
func (w *WAL) Append(txid uint64, name string, seq int64, rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.pbuf[:0]
	p = binary.AppendUvarint(p, txid)
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	p = binary.AppendUvarint(p, uint64(seq))
	p = binary.AppendUvarint(p, uint64(len(rec)))
	p = append(p, rec...)
	w.pbuf = p
	return w.writeLocked(recAppend, p)
}

// Rollback logs the transaction's rollback record. The record is a marker
// only — recovery already discards any transaction without a commit record
// — so it is not synced; losing it in a crash changes nothing.
func (w *WAL) Rollback(txid uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pbuf = binary.AppendUvarint(w.pbuf[:0], txid)
	return w.writeLocked(recRollback, w.pbuf)
}

// Commit logs the transaction's commit record and makes it durable.
func (w *WAL) Commit(txid uint64) error {
	w.mu.Lock()
	w.pbuf = binary.AppendUvarint(w.pbuf[:0], txid)
	err := w.writeLocked(recCommit, w.pbuf)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.Sync()
}

// Sync makes every record appended so far durable. Concurrent callers
// group-commit: one leader issues a single fsync covering everything
// appended by then; the others wait for it.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.off
	for w.synced < target {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		f, high := w.f, w.off
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		w.syncing = false
		w.cond.Broadcast()
		if err != nil {
			return fmt.Errorf("storage: wal sync: %w", err)
		}
		if high > w.synced {
			w.synced = high
		}
	}
	return nil
}

// rewrite truncates the log to a single checkpoint record carrying states.
// The new log is built in a temporary file, synced, and renamed over the
// old one, so a crash at any point leaves one intact log in place.
func (w *WAL) rewrite(states []heapState) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	return w.install(w.checkpointLog(states))
}

// checkpointLog returns the bytes of a log holding one checkpoint record
// carrying states. Its caller holds w.mu or owns w alone.
func (w *WAL) checkpointLog(states []heapState) []byte {
	p := w.pbuf[:0]
	p = binary.AppendUvarint(p, uint64(len(states)))
	for _, st := range states {
		p = binary.AppendUvarint(p, uint64(len(st.name)))
		p = append(p, st.name...)
		p = binary.AppendUvarint(p, uint64(st.numPages))
		p = binary.AppendUvarint(p, uint64(st.numTuples))
		p = binary.AppendUvarint(p, uint64(st.lastUsed))
		if st.numPages > 0 {
			p = append(p, st.lastPage...)
		}
	}
	for _, st := range states {
		flags := summaryTrusted
		if st.stats != nil {
			flags |= summaryStats
		}
		p = append(p, flags)
		if st.stats != nil {
			p = binary.AppendUvarint(p, uint64(len(st.stats)))
			p = append(p, st.stats...)
		}
	}
	w.pbuf = p
	body := make([]byte, 0, walHeaderSize+1+len(p))
	body = append(body, 0, 0, 0, 0, 0, 0, 0, 0)
	body = append(body, byte(recCheckpoint))
	body = append(body, p...)
	binary.LittleEndian.PutUint32(body[0:4], crc32.ChecksumIEEE(body[walHeaderSize:]))
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(body)-walHeaderSize))
	return body
}

// install makes body the log: written to a temporary file, synced, and
// renamed over the old log. Its caller holds w.mu or owns w alone.
func (w *WAL) install(body []byte) error {
	tmp := filepath.Join(w.dir, walTmpName)
	f, err := w.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	if _, err := f.WriteAt(body, 0); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	if err := w.fs.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("storage: wal checkpoint: %w", err)
	}
	return w.reopen(int64(len(body)))
}

// reopen opens the log file for appending after its first size bytes,
// all of them durable.
func (w *WAL) reopen(size int64) error {
	nf, err := w.fs.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal reopen: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = nf
	w.off = size
	w.synced = size
	return nil
}

// Close releases the log file handle without truncating the log (the next
// open replays it).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walRecord is one parsed log record.
type walRecord struct {
	typ    walRecType
	txid   uint64
	name   string
	seq    int64
	data   []byte
	states []heapState
}

// byteReader decodes uvarint-framed payloads, latching any decode failure.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// parseWAL decodes records from the raw log bytes, stopping silently at
// the first corrupt or truncated record: everything past a torn tail is by
// definition not durable.
func parseWAL(data []byte) []walRecord {
	var recs []walRecord
	off := 0
	for off+walHeaderSize <= len(data) {
		crc := binary.LittleEndian.Uint32(data[off:])
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		if n < 1 || n > len(data)-off-walHeaderSize {
			break
		}
		body := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		rec, ok := decodeBody(body)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += walHeaderSize + n
	}
	return recs
}

func decodeBody(body []byte) (walRecord, bool) {
	rec := walRecord{typ: walRecType(body[0])}
	r := &byteReader{b: body, off: 1}
	switch rec.typ {
	case recBegin, recCommit, recRollback:
		rec.txid = r.uvarint()
	case recAppend:
		rec.txid = r.uvarint()
		rec.name = string(r.take(r.uvarint()))
		rec.seq = int64(r.uvarint())
		rec.data = r.take(r.uvarint())
	case recCheckpoint:
		n := r.uvarint()
		for i := uint64(0); i < n && !r.bad; i++ {
			var st heapState
			st.name = string(r.take(r.uvarint()))
			st.numPages = int64(r.uvarint())
			st.numTuples = int64(r.uvarint())
			st.lastUsed = int(r.uvarint())
			if st.numPages > 0 {
				st.lastPage = r.take(PageSize)
			}
			rec.states = append(rec.states, st)
		}
		if r.off < len(r.b) { // the summaries; absent from older logs
			for i := range rec.states {
				flags := r.take(1)
				if r.bad {
					break
				}
				st := &rec.states[i]
				st.trusted = flags[0]&summaryTrusted != 0
				if flags[0]&summaryStats != 0 {
					// A copy: an adopted heap keeps it, and must not keep
					// the whole log it was read from alive.
					st.stats = bytes.Clone(r.take(r.uvarint()))
				}
			}
		}
	default:
		return rec, false
	}
	return rec, !r.bad
}

// recovery is what recoverWAL found: the entries of the log's last
// checkpoint and the post-redo entries of the heaps it replayed, by name.
// Both are empty when there was no log.
type recovery struct {
	found  bool
	base   map[string]heapState
	redone map[string]heapState
	log    []byte // the log's bytes as found
}

// recoverWAL replays the directory's log, if any: relations touched by
// append records after the last checkpoint are rewound to their checkpoint
// geometry and the appends of committed transactions are replayed onto
// them. Uncommitted work disappears; untouched relations are not opened.
func recoverWAL(fs FS, dir string) (recovery, error) {
	path := filepath.Join(dir, walFileName)
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return recovery{}, nil // pre-WAL database or first open
	}
	if err != nil {
		return recovery{}, fmt.Errorf("storage: wal recover: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return recovery{}, fmt.Errorf("storage: wal recover: %w", err)
	}
	data := make([]byte, size)
	if size > 0 {
		if n, err := f.ReadAt(data, 0); int64(n) < size {
			f.Close()
			return recovery{}, fmt.Errorf("storage: wal recover: short read: %w", err)
		}
	}
	f.Close()

	recs := parseWAL(data)
	base := make(map[string]heapState)
	start := 0
	for i, r := range recs {
		if r.typ == recCheckpoint {
			start = i + 1
			clear(base)
			for _, st := range r.states {
				base[st.name] = st
			}
		}
	}
	committed := make(map[uint64]bool)
	for _, r := range recs[start:] {
		if r.typ == recCommit {
			committed[r.txid] = true
		}
	}
	touched := make(map[string]bool)
	redo := make(map[string][][]byte)
	for _, r := range recs[start:] {
		if r.typ != recAppend {
			continue
		}
		touched[r.name] = true
		if committed[r.txid] {
			redo[r.name] = append(redo[r.name], r.data)
		}
	}
	names := make([]string, 0, len(touched))
	for n := range touched {
		names = append(names, n)
	}
	sort.Strings(names)
	rec := recovery{found: true, base: base, redone: make(map[string]heapState, len(names)), log: data}
	for _, name := range names {
		st, err := redoRelation(fs, dir, name, base[name], redo[name])
		if err != nil {
			return recovery{}, err
		}
		rec.redone[name] = st
	}
	return rec, nil
}

// redoRelation rewinds one heap file to its checkpoint geometry st (the
// zero state for a relation created after the checkpoint), then replays
// recs — raw serialized tuples in commit order — with the same page-packing
// rule HeapFile.Append uses, and truncates the file to the replayed length.
// Everything the crash may have left beyond or torn inside the replayed
// region is overwritten or cut off. It returns the file's new entry: the
// geometry it wrote, st's statistics and recs as the tail they lack.
func redoRelation(fs FS, dir, name string, st heapState, recs [][]byte) (heapState, error) {
	path := filepath.Join(dir, name+".heap")
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return heapState{}, fmt.Errorf("storage: redo %s: %w", name, err)
	}
	defer f.Close()
	page := make([]byte, PageSize)
	numPages := st.numPages
	lastUsed := st.lastUsed
	if numPages > 0 {
		copy(page, st.lastPage)
	}
	count := binary.LittleEndian.Uint16(page[0:2])
	flushLast := func() error {
		binary.LittleEndian.PutUint16(page[0:2], count)
		if _, err := f.WriteAt(page, (numPages-1)*PageSize); err != nil {
			return fmt.Errorf("storage: redo %s: %w", name, err)
		}
		return nil
	}
	dirtyLast := numPages > 0 // the restored image must reach the disk
	for _, rec := range recs {
		need := recHeader + len(rec)
		if numPages == 0 || lastUsed+need > PageSize {
			if numPages > 0 {
				if err := flushLast(); err != nil {
					return heapState{}, err
				}
			}
			numPages++
			for i := range page {
				page[i] = 0
			}
			lastUsed = pageHeader
			count = 0
		}
		binary.LittleEndian.PutUint16(page[lastUsed:], uint16(len(rec)))
		copy(page[lastUsed+recHeader:], rec)
		lastUsed += need
		count++
		dirtyLast = true
	}
	if dirtyLast {
		if err := flushLast(); err != nil {
			return heapState{}, err
		}
	}
	if err := f.Truncate(numPages * PageSize); err != nil {
		return heapState{}, fmt.Errorf("storage: redo %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return heapState{}, fmt.Errorf("storage: redo %s: %w", name, err)
	}
	out := heapState{
		name:      name,
		numPages:  numPages,
		numTuples: st.numTuples + int64(len(recs)),
		lastUsed:  lastUsed,
		stats:     st.stats,
		tail:      recs,
	}
	if numPages > 0 {
		out.lastPage = page
	}
	return out, nil
}

// readHeapState derives a heap file's checkpoint geometry by walking its
// page headers, without needing the relation's schema: the one walk Open
// makes, for a heap no checkpoint entry vouches for.
func readHeapState(fs FS, dir, name string) (heapState, error) {
	path := filepath.Join(dir, name+".heap")
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return heapState{}, fmt.Errorf("storage: read heap state %s: %w", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return heapState{}, fmt.Errorf("storage: read heap state %s: %w", name, err)
	}
	if size%PageSize != 0 {
		return heapState{}, fmt.Errorf("storage: heap %s is %d bytes, not page aligned", name, size)
	}
	st := heapState{name: name, numPages: size / PageSize}
	page := make([]byte, PageSize)
	for pid := int64(0); pid < st.numPages; pid++ {
		if _, err := f.ReadAt(page, pid*PageSize); err != nil {
			return heapState{}, fmt.Errorf("storage: read heap state %s: %w", name, err)
		}
		st.numTuples += int64(binary.LittleEndian.Uint16(page[0:2]))
		if pid == st.numPages-1 {
			if st.lastUsed, err = pageEnd(page, path, PageID(pid)); err != nil {
				return heapState{}, err
			}
			st.lastPage = append([]byte(nil), page...)
		}
	}
	return st, nil
}

// CorruptPageError reports a heap page whose record count or record
// lengths point outside the page. Scans and opens stop with it instead of
// reading past the page.
type CorruptPageError struct {
	Path string // the heap file
	Page PageID
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: corrupt heap page %d of %s: a record overruns the page", e.Page, e.Path)
}

// recordAt returns the bounds of the record whose length field starts at
// off in page, or false when the field or the record does not fit in the
// page.
func recordAt(page []byte, off int) (start, end int, ok bool) {
	if off+recHeader > len(page) {
		return 0, 0, false
	}
	start = off + recHeader
	end = start + int(binary.LittleEndian.Uint16(page[off:]))
	return start, end, end <= len(page)
}

// pageEnd walks the records of a heap page and returns the offset just
// past the last one: the append cursor, when it is the file's last page.
func pageEnd(page []byte, path string, pid PageID) (int, error) {
	off := pageHeader
	for i := binary.LittleEndian.Uint16(page[0:2]); i > 0; i-- {
		_, end, ok := recordAt(page, off)
		if !ok {
			return 0, &CorruptPageError{Path: path, Page: pid}
		}
		off = end
	}
	return off, nil
}
