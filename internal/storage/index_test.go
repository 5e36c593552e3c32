package storage

import "testing"

func TestIndexEntryRoundTrip(t *testing.T) {
	const tid = 1<<40 + 42
	rec := AppendIndexEntry(nil, tid)
	if len(rec) != IndexEntrySize {
		t.Fatalf("encoded %d bytes, want %d", len(rec), IndexEntrySize)
	}
	got, err := DecodeIndexEntry(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got != tid {
		t.Errorf("round trip: got %d want %d", got, tid)
	}
	if _, err := DecodeIndexEntry(rec[:5]); err == nil {
		t.Errorf("short record: want error")
	}
	if _, err := DecodeIndexEntry(append(rec, 0)); err == nil {
		t.Errorf("long record: want error")
	}
}

// appendIndexEntries appends one entry per tid through the logged path.
func appendIndexEntries(t *testing.T, h *HeapFile, tids ...uint64) {
	t.Helper()
	for _, tid := range tids {
		if err := h.AppendRaw(AppendIndexEntry(nil, tid)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexHeapAppendAndScan(t *testing.T) {
	m := newManager(t, 8)
	h, err := m.CreateHeap("idx-r-x", IndexSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Enough entries to span multiple pages (10 bytes a record with its
	// length prefix).
	const n = 2000
	tids := make([]uint64, n)
	for i := range tids {
		tids[i] = uint64(n - 1 - i)
	}
	appendIndexEntries(t, h, tids...)
	if h.NumPages() < 2 {
		t.Fatalf("want multiple pages, got %d", h.NumPages())
	}
	all, err := ReadIndexEntries(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("read %d entries, want %d", len(all), n)
	}
	for i, tid := range all {
		if tid != tids[i] {
			t.Fatalf("entry %d = %d, want %d", i, tid, tids[i])
		}
	}
}

func TestIndexHeapSurvivesRecovery(t *testing.T) {
	fs := NewMemFS()
	dir := "db"
	m, err := NewManagerOptions(dir, ManagerOptions{PoolPages: 8, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.CreateHeap("idx-r-x", IndexSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	appendIndexEntries(t, h, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash without checkpoint: reopen replays the log.
	m2, err := NewManagerOptions(dir, ManagerOptions{PoolPages: 8, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m2.OpenHeap("idx-r-x", IndexSchema())
	if err != nil {
		t.Fatal(err)
	}
	all, err := ReadIndexEntries(h2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("recovered %d entries, want 10", len(all))
	}
	for i, tid := range all {
		if tid != uint64(i) {
			t.Fatalf("entry %d = %d", i, tid)
		}
	}
}
