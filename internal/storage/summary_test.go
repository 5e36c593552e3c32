package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/frel"
)

// scanStats builds h's statistics the way a fresh scan does.
func scanStats(t *testing.T, h *HeapFile) *frel.TableStats {
	t.Helper()
	rel, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ts := frel.NewTableStats(len(h.Schema.Attrs))
	ts.ObserveAll(rel.Tuples)
	return ts
}

// requireScanStats requires h.Stats() to equal a fresh scan's statistics
// exactly (equal encodings: every field bit for bit, sketch included),
// and reports how many pages computing h.Stats() read.
func requireScanStats(t *testing.T, m *Manager, h *HeapFile) (reads int64) {
	t.Helper()
	before := m.Stats().Reads.Load()
	got, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	reads = m.Stats().Reads.Load() - before
	if want := scanStats(t, h); !bytes.Equal(frel.AppendStats(nil, got), frel.AppendStats(nil, want)) {
		t.Fatalf("statistics differ from a fresh scan:\n got %+v\nwant %+v", got, want)
	}
	return reads
}

// overwriteHeapPage rewrites page pid of db/<name>.heap behind the
// engine's back.
func overwriteHeapPage(t *testing.T, fs FS, name string, pid int64, mutate func(page []byte)) {
	t.Helper()
	f, err := fs.OpenFile("db/"+name+".heap", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := make([]byte, PageSize)
	if _, err := f.ReadAt(page, pid*PageSize); err != nil {
		t.Fatal(err)
	}
	mutate(page)
	if _, err := f.WriteAt(page, pid*PageSize); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecordsSummaries: a relation heap has statistics from its
// creation and the checkpoint records them, exact; an index heap's entry
// vouches for its geometry only.
func TestCheckpointRecordsSummaries(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	r, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendAll(walPrefix(500)); err != nil {
		t.Fatal(err)
	}
	ix, err := m.CreateHeap(IndexPrefix+"r-x", IndexSchema())
	if err != nil {
		t.Fatal(err)
	}
	appendIndexEntries(t, ix, 1)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs := readWAL(t, fs)
	if len(recs) != 1 || len(recs[0].states) != 2 {
		t.Fatalf("log = %+v, want one checkpoint of two heaps", recs)
	}
	byName := map[string]heapState{}
	for _, st := range recs[0].states {
		byName[st.name] = st
	}
	st := byName["r"]
	if !st.trusted || st.stats == nil {
		t.Fatalf("relation entry: trusted=%v stats=%d bytes, want both", st.trusted, len(st.stats))
	}
	if want := frel.AppendStats(nil, scanStats(t, r)); !bytes.Equal(st.stats, want) {
		t.Fatal("recorded statistics differ from a fresh scan")
	}
	if st := byName[IndexPrefix+"r-x"]; !st.trusted || st.stats != nil {
		t.Fatalf("index entry: trusted=%v stats=%d bytes, want geometry only", st.trusted, len(st.stats))
	}
}

// TestOpenAdoptsCheckpointEntry: reopening a checkpointed heap takes its
// geometry and statistics from the checkpoint entry, reading neither the
// file's page headers nor its tuples. The proof is a page-0 count altered
// behind the engine's back: a walk would see it, the adopted entry does
// not.
func TestOpenAdoptsCheckpointEntry(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(1500)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pages := h.NumPages()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	overwriteHeapPage(t, fs, "r", 0, func(p []byte) { p[0]-- })

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 1500 || h2.NumPages() != pages {
		t.Fatalf("reopened %d tuples / %d pages, want the recorded 1500 / %d", h2.NumTuples(), h2.NumPages(), pages)
	}
	if reads := m2.Stats().Reads.Load(); reads != 0 {
		t.Fatalf("open read %d pages through the pool, want 0", reads)
	}
	before := m2.Stats().Reads.Load()
	ts, err := h2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1500 || m2.Stats().Reads.Load() != before {
		t.Fatalf("statistics: %d rows after %d page reads, want the recorded 1500 and none", ts.Rows, m2.Stats().Reads.Load()-before)
	}
}

// TestOpenWalksChangedHeap: when the file's last page no longer matches
// the entry, Open walks the file and the statistics come from a scan.
func TestOpenWalksChangedHeap(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(300)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last := h.NumPages() - 1
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop the last record of the last page, as no logged operation can.
	overwriteHeapPage(t, fs, "r", last, func(p []byte) {
		binary.LittleEndian.PutUint16(p[0:2], binary.LittleEndian.Uint16(p[0:2])-1)
	})

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 299 {
		t.Fatalf("reopened %d tuples, want the 299 the file holds", h2.NumTuples())
	}
	if reads := requireScanStats(t, m2, h2); reads == 0 {
		t.Fatal("statistics of a walked heap were not built by a scan")
	}
}

// TestRedoObservesReplayedTail: a heap redo replays appends onto keeps
// exact statistics without a scan: the checkpoint's statistics with the
// committed tail observed once the schema is known. Uncommitted appends
// are not observed, and the next open adopts the entry the first one
// wrote.
func TestRedoObservesReplayedTail(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(200)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 260; i++ { // committed tail
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Begin(); err != nil { // uncommitted tail
		t.Fatal(err)
	}
	for i := 260; i < 270; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 260 {
		t.Fatalf("recovered %d tuples, want 260", h2.NumTuples())
	}
	if reads := requireScanStats(t, m2, h2); reads != 0 {
		t.Fatalf("statistics after redo read %d pages, want none", reads)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	// The log the first open wrote vouches for the redone geometry.
	m3 := newWALManager(t, fs, 8)
	h3, err := m3.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h3.NumTuples() != 260 {
		t.Fatalf("second reopen: %d tuples, want 260", h3.NumTuples())
	}
	requireScanStats(t, m3, h3)
}

// TestRollbackKeepsRecordedStats: after a rollback the in-memory
// statistics are gone, but the tuple count is back where the checkpoint
// recorded it, so the next checkpoint records the previous statistics
// again and a reopen adopts them.
func TestRollbackKeepsRecordedStats(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recorded := readWAL(t, fs)[0].states[0].stats
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(walTuple(100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := readWAL(t, fs)[0].states[0].stats; !bytes.Equal(got, recorded) {
		t.Fatal("checkpoint after rollback did not record the previous statistics")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if reads := requireScanStats(t, m2, h2); reads != 0 {
		t.Fatalf("statistics read %d pages, want the recorded ones", reads)
	}
}

// writeLegacyLog replaces the log with one checkpoint record in the
// layout logs had before summaries: geometry only.
func writeLegacyLog(t *testing.T, fs FS, states []heapState) {
	t.Helper()
	p := binary.AppendUvarint(nil, uint64(len(states)))
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
	body := append([]byte{byte(recCheckpoint)}, p...)
	rec := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(body)))
	f, err := fs.OpenFile("db/"+walFileName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(append(rec, body...), 0); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyCheckpointIsWalked: a log written before checkpoint entries
// carried summaries still recovers; its heaps are walked and their
// statistics built by a scan, and the next checkpoint records them.
func TestLegacyCheckpointIsWalked(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(120)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	states := readWAL(t, fs)[0].states
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	writeLegacyLog(t, fs, states)
	if st := readWAL(t, fs)[0].states[0]; st.trusted || st.stats != nil {
		t.Fatalf("legacy entry decoded with a summary: %+v", st)
	}

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 120 {
		t.Fatalf("reopened %d tuples, want 120", h2.NumTuples())
	}
	if reads := requireScanStats(t, m2, h2); reads == 0 {
		t.Fatal("legacy heap's statistics were not built by a scan")
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := readWAL(t, fs)[0].states[0]; !st.trusted || st.stats == nil {
		t.Fatal("checkpoint after a legacy open recorded no summary")
	}
}

// TestCreateHeapOverStaleEntry: a heap file the open listed but nobody
// reopened (a DROP that crashed before removing it) is truncated by a
// CREATE of the same name; redo of the new heap's appends must not rewind
// it to the old file's geometry.
func TestCreateHeapOverStaleEntry(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(400)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h2.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil { // crash: no checkpoint
		t.Fatal(err)
	}

	m3 := newWALManager(t, fs, 8)
	h3, err := m3.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h3.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(3), 0) || h3.NumTuples() != 3 {
		t.Fatalf("recovered %d tuples (%d counted), want the new heap's 3", got.Len(), h3.NumTuples())
	}
	requireScanStats(t, m3, h3)
}

// corruptHeap builds a two-page heap in a fresh MemFS, applies mutate to
// page 0 of its checkpointed file, and reopens it: the checkpoint entry
// vouches for the file, whose last page is intact, so the open adopts it
// without reading page 0.
func corruptHeap(t *testing.T, mutate func(page []byte)) *HeapFile {
	t.Helper()
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(walPrefix(600)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() < 2 {
		t.Fatalf("heap has %d pages, want at least 2", h.NumPages())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	overwriteHeapPage(t, fs, "r", 0, mutate)
	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return h2
}

// CorruptPages are the page-0 corruptions every scan must survive: a
// record count past the records, a record length past the page, and a
// record length ending exactly at the page end, which puts the next
// record's length field outside the page.
var corruptPages = map[string]func(page []byte){
	"count": func(p []byte) { binary.LittleEndian.PutUint16(p[0:2], 0xFFFF) },
	"length": func(p []byte) {
		binary.LittleEndian.PutUint16(p[pageHeader:], 0xFFFF)
	},
	"length to page end": func(p []byte) {
		binary.LittleEndian.PutUint16(p[pageHeader:], PageSize-pageHeader-recHeader)
	},
}

// TestScanCorruptPageIsAnError: Scan, ScanAt, NextBatch and NextRaw stop
// with an error on every corruption, and never panic. The page walk's
// error is a *CorruptPageError; a count past the records can first reach
// the zeroed rest of the page, whose empty records fail to decode as
// tuples.
func TestScanCorruptPageIsAnError(t *testing.T) {
	for name, mutate := range corruptPages {
		h := corruptHeap(t, mutate)
		scans := map[string]func() error{
			"Scan": func() error {
				sc := h.Scan()
				for _, ok := sc.Next(); ok; _, ok = sc.Next() {
				}
				return sc.Err()
			},
			"ScanAt": func() error {
				sc := h.ScanAt(h.NumTuples())
				for _, ok := sc.Next(); ok; _, ok = sc.Next() {
				}
				return sc.Err()
			},
			"NextBatch": func() error {
				sc := h.Scan()
				buf := make([]frel.Tuple, 0, 64)
				for len(sc.NextBatch(buf)) > 0 {
				}
				return sc.Err()
			},
			"NextRaw": func() error {
				sc := h.Scan()
				for _, ok := sc.NextRaw(); ok; _, ok = sc.NextRaw() {
				}
				return sc.Err()
			},
		}
		for scan, run := range scans {
			err := run()
			var cpe *CorruptPageError
			typed := errors.As(err, &cpe) && cpe.Page == 0
			if err == nil || !typed && (scan == "NextRaw" || name != "count") {
				t.Errorf("%s, corrupt %s: err = %v, want a *CorruptPageError on page 0", scan, name, err)
			}
		}
	}
}
