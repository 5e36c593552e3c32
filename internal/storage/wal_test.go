package storage

import (
	"errors"
	"io"
	"math/bits"
	"os"
	"sync"
	"testing"

	"repro/internal/frel"
)

// walTuple builds the i-th tuple of the deterministic test sequence, with
// a varied membership degree so recovery checks cover degree fidelity.
func walTuple(i int) frel.Tuple {
	return frel.NewTuple(0.125+float64(i%8)/8, frel.Crisp(float64(i)), frel.Str("w"))
}

// walPrefix is the relation holding the first n tuples of the sequence.
func walPrefix(n int) *frel.Relation {
	rel := frel.NewRelation(testSchema())
	for i := 0; i < n; i++ {
		rel.Append(walTuple(i))
	}
	return rel
}

// newWALManager opens a manager over fs (rooted at "db").
func newWALManager(t *testing.T, fs FS, pages int) *Manager {
	t.Helper()
	m, err := NewManagerOptions("db", ManagerOptions{PoolPages: pages, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readWAL parses the current log file of fs.
func readWAL(t *testing.T, fs FS) []walRecord {
	t.Helper()
	f, err := fs.OpenFile("db/"+walFileName, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return parseWAL(data)
}

func TestMemFS(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.OpenFile("d/a", os.O_RDONLY, 0); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
	f, err := fs.OpenFile("d/a", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if n, err := f.ReadAt(buf, 0); n != 5 || err != io.EOF {
		t.Errorf("short ReadAt = (%d, %v), want (5, EOF)", n, err)
	}
	if string(buf[:5]) != "hello" {
		t.Errorf("read %q", buf[:5])
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 2 {
		t.Errorf("Size after shrink = %d", sz)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.ReadAt(buf[:4], 0); n != 4 || string(buf[:4]) != "he\x00\x00" {
		t.Errorf("grown file reads %q (%d bytes)", buf[:4], n)
	}
	// Writes past the end grow the file and zero-fill the gap.
	if _, err := f.WriteAt([]byte("z"), 6); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 7 {
		t.Errorf("Size after sparse write = %d", sz)
	}
	if err := fs.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("d")
	if err != nil || len(names) != 1 || names[0] != "b" {
		t.Errorf("ReadDir = %v, %v", names, err)
	}
	if err := fs.Remove("d/b"); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.ReadDir("d"); len(names) != 0 {
		t.Errorf("ReadDir after Remove = %v", names)
	}
	if err := fs.Rename("d/b", "d/c"); err == nil {
		t.Errorf("renaming a missing file should fail")
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Errorf("SyncDir: %v", err)
	}
	// O_TRUNC clears existing content.
	if _, err := fs.OpenFile("d/t", os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.OpenFile("d/t", os.O_RDWR|os.O_CREATE, 0o644)
	g.WriteAt([]byte("xyz"), 0)
	g, _ = fs.OpenFile("d/t", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if sz, _ := g.Size(); sz != 0 {
		t.Errorf("O_TRUNC left %d bytes", sz)
	}
}

func TestWALReplaysCommittedDiscardsUncommitted(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // auto-committed appends
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Begin(); err != nil { // uncommitted transaction
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the manager without commit, checkpoint, or flush. The
	// dirty pages in the buffer pool never reach the heap file.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(3), 0) {
		t.Errorf("recovered %d tuples, want the 3 committed ones", got.Len())
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALCheckpointTruncatesLog(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs := readWAL(t, fs)
	if len(recs) != 1 || recs[0].typ != recCheckpoint {
		t.Fatalf("log after checkpoint has %d records, want 1 checkpoint", len(recs))
	}
	if len(recs[0].states) != 1 || recs[0].states[0].name != "r" || recs[0].states[0].numTuples != 10 {
		t.Errorf("checkpoint states = %+v", recs[0].states)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncated log still reopens to the full contents.
	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(10), 0) {
		t.Errorf("recovered relation differs after checkpoint+reopen")
	}
}

// syncCountingFS counts the file syncs, directory syncs and renames done
// through it.
type syncCountingFS struct {
	FS
	syncs, dirSyncs, renames int
}

type syncCountingFile struct {
	File
	fs *syncCountingFS
}

func (c *syncCountingFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountingFile{File: f, fs: c}, nil
}

func (c *syncCountingFS) SyncDir(dir string) error {
	c.dirSyncs++
	return c.FS.SyncDir(dir)
}

func (c *syncCountingFS) Rename(oldpath, newpath string) error {
	c.renames++
	return c.FS.Rename(oldpath, newpath)
}

func (f syncCountingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// TestWALReopenCleanWritesNothing: opening a database whose log already
// is the checkpoint Open would write (checkpointed, or opened and closed
// without a write since) keeps that log: no sync, directory sync or
// rename. A log with appends after its checkpoint is still rewritten, and
// either way the relation reopens whole.
func TestWALReopenCleanWritesNothing(t *testing.T) {
	fs := &syncCountingFS{FS: NewMemFS()}
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(label string, wantRewrite bool, n int) {
		t.Helper()
		fs.syncs, fs.dirSyncs, fs.renames = 0, 0, 0
		m := newWALManager(t, fs, 8)
		h, err := m.OpenHeap("r", testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if rewrote := fs.syncs+fs.dirSyncs+fs.renames > 0; rewrote != wantRewrite {
			t.Errorf("%s: %d syncs, %d directory syncs, %d renames; want a rewrite: %v", label, fs.syncs, fs.dirSyncs, fs.renames, wantRewrite)
		}
		got, err := h.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(walPrefix(n), 0) {
			t.Errorf("%s: reopened relation differs", label)
		}
		if n == 10 {
			if err := h.Append(walTuple(10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reopen("checkpointed", false, 10)
	reopen("after a committed append", true, 11)
	reopen("after the rewrite", false, 11)
}

func TestWALCheckpointRejectsOpenTransaction(t *testing.T) {
	m := newWALManager(t, NewMemFS(), 8)
	if _, err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Errorf("checkpoint inside a transaction should fail")
	}
}

func TestWALCorruptTailDropsSuffixOnly(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	var offAfter3 int64
	for i := 0; i < 6; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			offAfter3 = m.wal.off
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the record region after the third commit: everything
	// from the corruption on is not durable, everything before it is.
	f, err := fs.OpenFile("db/"+walFileName, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offAfter3+5); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, offAfter3+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(3), 0) {
		t.Errorf("recovered %d tuples, want the 3 before the corruption", got.Len())
	}
}

func TestParseWALStopsAtGarbage(t *testing.T) {
	if recs := parseWAL(nil); len(recs) != 0 {
		t.Errorf("empty log parsed to %d records", len(recs))
	}
	if recs := parseWAL(make([]byte, 200)); len(recs) != 0 {
		t.Errorf("zero log parsed to %d records", len(recs))
	}
	if recs := parseWAL([]byte{1, 2, 3}); len(recs) != 0 {
		t.Errorf("short log parsed to %d records", len(recs))
	}
}

func TestWALNoStealEvictionUnderPressure(t *testing.T) {
	// A pool of 2 pages with a transaction spanning several pages forces
	// eviction of no-steal frames: the pool must sync the log first (the
	// release hook), then steal. The data must survive a reopen.
	fs := NewMemFS()
	m := newWALManager(t, fs, 2)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 600 // ~4 pages of test tuples
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() < 3 {
		t.Fatalf("workload fits in the pool (%d pages); raise n", h.NumPages())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newWALManager(t, fs, 8)
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(n), 0) {
		t.Errorf("recovered relation differs after no-steal eviction")
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	fs := NewMemFS()
	w, _, err := openWAL(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id, err := w.Begin()
			if err == nil {
				err = w.Append(id, "r", int64(g), []byte{byte(g)})
			}
			if err == nil {
				err = w.Commit(id)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	recs := readWAL(t, fs)
	var begins, appends, commits int
	seen := make(map[uint64]bool)
	for _, r := range recs {
		switch r.typ {
		case recBegin:
			begins++
			if seen[r.txid] {
				t.Errorf("duplicate txid %d", r.txid)
			}
			seen[r.txid] = true
		case recAppend:
			appends++
		case recCommit:
			commits++
		}
	}
	if begins != writers || appends != writers || commits != writers {
		t.Errorf("log has %d/%d/%d begin/append/commit records, want %d each",
			begins, appends, commits, writers)
	}
}

func TestFaultFSStopAndCounting(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultStop, 2, 1)
	f, err := ffs.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ab"), 0); err != nil { // op 1
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 2), 0); err != nil { // reads don't count
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("cd"), 2); !errors.Is(err, ErrInjectedFault) { // op 2 fires
		t.Fatalf("write 2: err = %v", err)
	}
	if !ffs.Crashed() {
		t.Errorf("Crashed() = false after fault")
	}
	// Everything after the crash fails.
	if _, err := f.WriteAt([]byte("e"), 0); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash write: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash read: %v", err)
	}
	if _, err := f.Size(); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash size: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash sync: %v", err)
	}
	if _, err := ffs.OpenFile("y", os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash open: %v", err)
	}
	if _, err := ffs.ReadDir("."); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash readdir: %v", err)
	}
	if err := ffs.Remove("x"); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("post-crash remove: %v", err)
	}
	// The failed write never reached the base.
	g, err := mem.OpenFile("x", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := g.Size(); sz != 2 {
		t.Errorf("base file has %d bytes, want 2", sz)
	}
	if got := ffs.Ops(); got != 2 {
		t.Errorf("Ops = %d, want 2", got)
	}
}

func TestFaultFSTorn(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultTorn, 1, 7)
	f, _ := ffs.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("torn write: err = %v", err)
	}
	g, err := mem.OpenFile("x", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := g.Size()
	if sz >= 100 {
		t.Errorf("torn write persisted %d bytes, want a strict prefix", sz)
	}
	buf := make([]byte, sz)
	g.ReadAt(buf, 0)
	for i := range buf {
		if buf[i] != payload[i] {
			t.Errorf("torn prefix differs at byte %d", i)
			break
		}
	}
}

func TestFaultFSFlip(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultFlip, 1, 3)
	f, _ := ffs.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	payload := []byte("abcdefgh")
	if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("flip write: err = %v", err)
	}
	g, err := mem.OpenFile("x", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		diff += bits.OnesCount8(got[i] ^ payload[i])
	}
	if diff != 1 {
		t.Errorf("flip changed %d bits, want exactly 1", diff)
	}
}

func TestFaultFSDropCrashesAtSync(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultDrop, 1, 1)
	f, _ := ffs.OpenFile("x", os.O_RDWR|os.O_CREATE, 0o644)
	// The dropped write claims success...
	if n, err := f.WriteAt([]byte("lost"), 0); n != 4 || err != nil {
		t.Fatalf("dropped write = (%d, %v), want claimed success", n, err)
	}
	if ffs.Crashed() {
		t.Errorf("crashed before the covering sync")
	}
	// ...later writes still land...
	if _, err := f.WriteAt([]byte("kept"), 4); err != nil {
		t.Fatal(err)
	}
	// ...and the next sync is where the process dies.
	if err := f.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("sync after drop: err = %v", err)
	}
	if !ffs.Crashed() {
		t.Errorf("Crashed() = false after the covering sync")
	}
	g, err := mem.OpenFile("x", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	g.ReadAt(buf, 0)
	if string(buf[4:]) != "kept" || string(buf[:4]) == "lost" {
		t.Errorf("base content %q: dropped bytes present or later bytes missing", buf)
	}
}

func TestFaultFSMutateOpsDegradeToStop(t *testing.T) {
	for _, mode := range FaultModes {
		mem := NewMemFS()
		mf, _ := mem.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
		mf.WriteAt([]byte("z"), 0)
		ffs := NewFaultFS(mem, mode, 1, 1)
		if err := ffs.Rename("a", "b"); !errors.Is(err, ErrInjectedFault) {
			t.Errorf("%v: rename fault: err = %v", mode, err)
		}
		if _, err := mem.OpenFile("a", os.O_RDONLY, 0); err != nil {
			t.Errorf("%v: rename happened despite the fault", mode)
		}
	}
}

// TestWALCrashMatrix sweeps the full fault matrix over a storage-level
// workload: every mode, at every mutating-I/O injection point, must leave
// a database that recovers to a committed prefix of the workload — at
// least everything acknowledged before the fault, never a torn state.
func TestWALCrashMatrix(t *testing.T) {
	// One committed boundary per entry: after boundary k the relation
	// holds the first boundaries[k] tuples.
	boundaries := []int{0, 1, 2, 3, 4, 5, 6, 12, 13}

	// workload runs the fixed mutation sequence over fs, returning the
	// number of tuples acknowledged as committed before any error.
	workload := func(fs FS) (acked int, err error) {
		m, err := NewManagerOptions("db", ManagerOptions{PoolPages: 4, FS: fs})
		if err != nil {
			return 0, err
		}
		h, err := m.CreateHeap("r", testSchema())
		if err != nil {
			return 0, err
		}
		for i := 0; i < 6; i++ {
			if err := h.Append(walTuple(i)); err != nil {
				return acked, err
			}
			acked = i + 1
		}
		if err := m.Checkpoint(); err != nil {
			return acked, err
		}
		batch := frel.NewRelation(testSchema())
		for i := 6; i < 12; i++ {
			batch.Append(walTuple(i))
		}
		if err := h.AppendAll(batch); err != nil {
			return acked, err
		}
		acked = 12
		tx, err := m.Begin()
		if err != nil {
			return acked, err
		}
		if err := h.Append(walTuple(12)); err != nil {
			return acked, err
		}
		if err := tx.Commit(); err != nil {
			return acked, err
		}
		acked = 13
		return acked, m.Close()
	}

	// Count the workload's injection points with a transparent FaultFS.
	counter := NewFaultFS(NewMemFS(), FaultStop, 0, 1)
	if _, err := workload(counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("workload issues only %d mutating ops; too small to be interesting", total)
	}

	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for _, mode := range FaultModes {
		for n := int64(1); n <= total; n += step {
			mem := NewMemFS()
			ffs := NewFaultFS(mem, mode, n, n*31+int64(mode))
			acked, err := workload(ffs)
			if err == nil && ffs.Crashed() {
				t.Fatalf("%v@%d: workload ignored the injected fault", mode, n)
			}
			if !ffs.Crashed() {
				continue // fault landed after the workload finished
			}

			// Reopen over the pristine base FS, replaying the log.
			m, err := NewManagerOptions("db", ManagerOptions{PoolPages: 8, FS: mem})
			if err != nil {
				t.Fatalf("%v@%d: reopen: %v", mode, n, err)
			}
			got := frel.NewRelation(testSchema())
			if _, err := mem.OpenFile("db/r.heap", os.O_RDONLY, 0); err == nil {
				h, err := m.OpenHeap("r", testSchema())
				if err != nil {
					t.Fatalf("%v@%d: open heap: %v", mode, n, err)
				}
				if got, err = h.ReadAll(); err != nil {
					t.Fatalf("%v@%d: read: %v", mode, n, err)
				}
			}
			ok := false
			for _, b := range boundaries {
				if b >= acked && got.Equal(walPrefix(b), 0) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%v@%d: recovered %d tuples with %d acked — not a committed prefix ≥ acked",
					mode, n, got.Len(), acked)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("%v@%d: close: %v", mode, n, err)
			}
		}
	}
}

func TestReadHeapStateRejectsCorruptPage(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.OpenFile("db/r.heap", os.O_CREATE|os.O_RDWR, 0o644)
	page := make([]byte, PageSize)
	page[0] = 1 // one record...
	page[2] = 0xFF
	page[3] = 0xFF // ...whose length overruns the page
	f.WriteAt(page, 0)
	if _, err := readHeapState(fs, "db", "r"); err == nil {
		t.Errorf("corrupt page: want error")
	}
	f.Truncate(10) // not page aligned
	if _, err := readHeapState(fs, "db", "r"); err == nil {
		t.Errorf("misaligned heap: want error")
	}
}
