package storage

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/frel"
)

// readHeapBytes returns the raw bytes of the heap file "db/r.heap".
func readHeapBytes(t *testing.T, fs FS) []byte {
	t.Helper()
	f, err := fs.OpenFile("db/r.heap", os.O_RDONLY, 0)
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
	return data
}

// TestTxnRollbackBitIdentical rolls back a multi-page transaction and
// checks the heap is restored exactly: same tuples, same counters, same
// on-disk bytes after a flush, and the rolled-back pages gone from the
// file.
func TestTxnRollbackBitIdentical(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 32)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	const committed = 5
	for i := 0; i < committed; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantBytes := readHeapBytes(t, fs)
	wantPages, wantTuples := h.NumPages(), h.NumTuples()

	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Enough tuples to spill onto fresh pages, so the rollback exercises
	// both the last-page restore and the page discard/truncate path.
	for i := committed; i < committed+200; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() == wantPages {
		t.Fatalf("transaction stayed on %d pages; grow the append count", wantPages)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if h.NumPages() != wantPages || h.NumTuples() != wantTuples {
		t.Errorf("after rollback: %d pages / %d tuples, want %d / %d",
			h.NumPages(), h.NumTuples(), wantPages, wantTuples)
	}
	got, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(committed), 0) {
		t.Errorf("after rollback ReadAll has %d tuples, want the %d committed ones", got.Len(), committed)
	}
	// The heap must keep working after the rollback: appends land where
	// the transaction's never did.
	if err := h.Append(walTuple(committed)); err != nil {
		t.Fatal(err)
	}
	got, err = h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(committed+1), 0) {
		t.Errorf("append after rollback: got %d tuples, want %d", got.Len(), committed+1)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Compare disk state against a database that never saw the
	// transaction at all.
	fs2 := NewMemFS()
	m2 := newWALManager(t, fs2, 32)
	h2, err := m2.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committed+1; i++ {
		if err := h2.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	cleanBytes := readHeapBytes(t, fs2)
	gotBytes := readHeapBytes(t, fs)
	if string(gotBytes) != string(cleanBytes) {
		t.Errorf("heap file after rollback+append differs from a never-rolled-back run (%d vs %d bytes)", len(gotBytes), len(cleanBytes))
	}
	_ = wantBytes
}

// TestTxnRollbackEmptyHeap rolls back the first appends a heap ever saw
// (the undo captures zero pages).
func TestTxnRollbackEmptyHeap(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	defer m.Close()
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 0 || h.NumTuples() != 0 {
		t.Errorf("after rollback: %d pages / %d tuples, want 0 / 0", h.NumPages(), h.NumTuples())
	}
	if err := h.Append(walTuple(0)); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(1), 0) {
		t.Errorf("append after empty-heap rollback: %d tuples, want 1", got.Len())
	}
}

// TestTxnSnapshotCut checks the snapshot machinery: an open transaction's
// appends are invisible to snapshots and to scans bounded by them until
// Commit, then visible all at once.
func TestTxnSnapshotCut(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 16)
	defer m.Close()
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 9; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if sn := snap[h]; sn.Tuples != 4 {
		t.Errorf("mid-transaction snapshot sees %d tuples, want 4", sn.Tuples)
	}
	// A bounded scan at the snapshot's cut returns exactly the prefix even
	// though the heap has grown past it.
	rc, err := h.readScanner(h.ScanAt(snap[h].Tuples))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Equal(walPrefix(4), 0) {
		t.Errorf("bounded scan mid-transaction has %d tuples, want 4", rc.Len())
	}

	verBefore := h.CommittedVersion()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	if sn := snap[h]; sn.Tuples != 9 {
		t.Errorf("post-commit snapshot sees %d tuples, want 9", sn.Tuples)
	}
	if h.CommittedVersion() == verBefore {
		t.Errorf("commit did not advance the committed version")
	}
	rc, err = h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Equal(walPrefix(9), 0) {
		t.Errorf("ReadAll post-commit has %d tuples, want 9", rc.Len())
	}
}

// TestTxnRollbackSurvivesRestart rolls a transaction back, crashes
// without a checkpoint, and checks recovery agrees with the in-memory
// outcome: the rolled-back tuples stay gone, work committed before and
// after survives.
func TestTxnRollbackSurvivesRestart(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 16)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 140; i++ {
		if err := h.Append(walTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(walTuple(3)); err != nil { // committed after the rollback
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // no checkpoint: recovery replays the log
		t.Fatal(err)
	}

	m2 := newWALManager(t, fs, 16)
	defer m2.Close()
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(4), 0) {
		t.Errorf("recovered %d tuples, want the 4 committed ones", got.Len())
	}
}

// TestTxnCommitTwoHeaps commits one transaction spanning two relations
// and checks the snapshot cut moves atomically for both.
func TestTxnCommitTwoHeaps(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 16)
	defer m.Close()
	a, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateHeap("s", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(walTuple(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(walTuple(1)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap[a].Tuples != 0 || snap[b].Tuples != 0 {
		t.Errorf("mid-transaction snapshot sees (%d, %d), want (0, 0)", snap[a].Tuples, snap[b].Tuples)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	if snap[a].Tuples != 1 || snap[b].Tuples != 1 {
		t.Errorf("post-commit snapshot sees (%d, %d), want (1, 1)", snap[a].Tuples, snap[b].Tuples)
	}
}

// TestFailedAutocommitAppendRollsBack: an autocommit append that fails in
// NewPage, because every frame of the pool is pinned, rolls its
// transaction back. The next autocommit append commits, and the manager
// can checkpoint and begin again.
func TestFailedAutocommitAppendRollsBack(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 2)
	defer m.Close()
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.CreateHeap("s", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Fill exactly one page of r, so its next append needs a new page.
	rec, err := frel.AppendTuple(nil, testSchema(), walTuple(0))
	if err != nil {
		t.Fatal(err)
	}
	perPage := (PageSize - pageHeader) / (recHeader + len(rec))
	if err := h.AppendAll(walPrefix(perPage)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(walTuple(0)); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 1 || s.NumPages() != 1 {
		t.Fatalf("heaps have %d and %d pages, want 1 each", h.NumPages(), s.NumPages())
	}
	var pinned []*Frame
	for _, hf := range []*HeapFile{h, s} {
		f, err := m.Pool().Get(hf.pager, 0)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if err := h.Append(walTuple(perPage)); err == nil {
		t.Fatal("append with every frame pinned succeeded")
	}
	for _, f := range pinned {
		m.Pool().Unpin(f, false)
	}
	if h.NumTuples() != int64(perPage) || h.NumPages() != 1 {
		t.Fatalf("after the failed append: %d tuples / %d pages, want %d / 1", h.NumTuples(), h.NumPages(), perPage)
	}

	if err := h.Append(walTuple(perPage)); err != nil {
		t.Fatal(err)
	}
	if h.CommittedTuples() != h.NumTuples() || h.NumTuples() != int64(perPage+1) {
		t.Errorf("committed %d of %d tuples, want all %d", h.CommittedTuples(), h.NumTuples(), perPage+1)
	}
	got, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(perPage+1), 0) {
		t.Errorf("heap holds %d tuples, want the %d appended", got.Len(), perPage+1)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the failed append: %v", err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatalf("begin after the failed append: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAppendAllRollsBack: an AppendAll that fails halfway leaves the
// heap as it was, so the next commit publishes only committed tuples and
// a reopen recovers the same count snapshot readers saw.
func TestFailedAppendAllRollsBack(t *testing.T) {
	fs := NewMemFS()
	m := newWALManager(t, fs, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(walTuple(0)); err != nil {
		t.Fatal(err)
	}
	batch := walPrefix(185)
	batch.Append(frel.NewTuple(1, frel.Crisp(0), frel.Str(strings.Repeat("x", PageSize))))
	if err := h.AppendAll(batch); err == nil {
		t.Fatal("AppendAll of an oversized tuple succeeded")
	}
	if h.NumTuples() != 1 {
		t.Fatalf("failed AppendAll left %d tuples, want the 1 before it", h.NumTuples())
	}
	if err := h.Append(walTuple(1)); err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot()[h].Tuples; n != 2 || h.NumTuples() != 2 {
		t.Errorf("snapshot sees %d of %d tuples, want 2", n, h.NumTuples())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := newWALManager(t, fs, 8)
	defer m2.Close()
	h2, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 2 {
		t.Errorf("reopen recovered %d tuples, want the 2 snapshot readers saw", h2.NumTuples())
	}
}
