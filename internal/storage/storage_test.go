package storage

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frel"
)

func testSchema() *frel.Schema {
	return frel.NewSchema("R",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	)
}

func newManager(t *testing.T, pages int) *Manager {
	t.Helper()
	return NewManager(t.TempDir(), pages)
}

// newTestPager opens a pager over a file in a per-test temporary
// directory, registering cleanup with t.Cleanup so the file cannot leak
// even when a test (or a simulated crash in the fault-injection tests)
// bails out before its deferred teardown.
func newTestPager(t *testing.T, stats *Stats) *Pager {
	t.Helper()
	if stats == nil {
		stats = &Stats{}
	}
	p, err := OpenPagerFS(OsFS{}, filepath.Join(t.TempDir(), "x.pg"), stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Remove() })
	return p
}

func TestPagerReadWrite(t *testing.T) {
	stats := &Stats{}
	p := newTestPager(t, stats)
	id := p.Allocate()
	out := make([]byte, PageSize)
	copy(out, "hello page")
	if err := p.WritePage(id, out); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, PageSize)
	if err := p.ReadPage(id, in); err != nil {
		t.Fatal(err)
	}
	if string(in[:10]) != "hello page" {
		t.Errorf("read back %q", in[:10])
	}
	if r, w, _, _ := stats.Snapshot(); r != 1 || w != 1 {
		t.Errorf("stats = %v", stats)
	}
}

func TestPagerBoundsAndBufferChecks(t *testing.T) {
	p := newTestPager(t, nil)
	buf := make([]byte, PageSize)
	if err := p.ReadPage(0, buf); err == nil {
		t.Errorf("read of unallocated page: want error")
	}
	id := p.Allocate()
	if err := p.ReadPage(id, make([]byte, 10)); err == nil {
		t.Errorf("short buffer: want error")
	}
	if err := p.WritePage(id, make([]byte, 10)); err == nil {
		t.Errorf("short write buffer: want error")
	}
	if err := p.WritePage(id+1, buf); err == nil {
		t.Errorf("write of unallocated page: want error")
	}
}

func TestPagerUnflushedPageReadsZero(t *testing.T) {
	p := newTestPager(t, nil)
	id := p.Allocate()
	buf := make([]byte, PageSize)
	buf[0] = 0xFF
	if err := p.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Errorf("unflushed page should read as zeroes, got %x", buf[0])
	}
}

func TestBufferPoolHitAndEvict(t *testing.T) {
	stats := &Stats{}
	p := newTestPager(t, stats)
	bp := NewBufferPool(2, stats)

	f1, err := bp.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	f1.Data[0] = 1
	bp.Unpin(f1, true)
	f2, err := bp.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	f2.Data[0] = 2
	bp.Unpin(f2, true)

	// Hit: page 0 still resident.
	g, err := bp.Get(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 1 {
		t.Errorf("page 0 byte = %d", g.Data[0])
	}
	bp.Unpin(g, false)
	if _, _, hits, _ := stats.Snapshot(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}

	// Third page forces an eviction (of page 1, LRU) and a writeback.
	f3, err := bp.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f3, true)
	if _, _, _, ev := stats.Snapshot(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}

	// Page 1 must come back from disk with its data intact.
	g1, err := bp.Get(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Data[0] != 2 {
		t.Errorf("page 1 byte after reload = %d", g1.Data[0])
	}
	bp.Unpin(g1, false)
}

func TestBufferPoolAllPinned(t *testing.T) {
	p := newTestPager(t, nil)
	bp := NewBufferPool(1, nil)
	f, err := bp.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(p); err == nil {
		t.Errorf("pool exhausted: want error")
	}
	bp.Unpin(f, false)
	if _, err := bp.NewPage(p); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

func TestBufferPoolUnpinPanicsWhenUnbalanced(t *testing.T) {
	p := newTestPager(t, nil)
	bp := NewBufferPool(2, nil)
	f, err := bp.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Errorf("double unpin did not panic")
		}
	}()
	bp.Unpin(f, false)
}

func TestHeapAppendScanRoundTrip(t *testing.T) {
	m := newManager(t, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		tup := frel.NewTuple(0.5, frel.Crisp(float64(i)), frel.Str(fmt.Sprintf("name-%d", i)))
		if err := h.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumTuples() != n {
		t.Errorf("NumTuples = %d", h.NumTuples())
	}
	if h.NumPages() < 2 {
		t.Errorf("NumPages = %d, want multiple pages", h.NumPages())
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := h.Scan()
	defer sc.Close()
	i := 0
	for {
		tup, ok := sc.Next()
		if !ok {
			break
		}
		if tup.Values[0].Num.A != float64(i) || tup.Values[1].Str != fmt.Sprintf("name-%d", i) {
			t.Fatalf("tuple %d = %v", i, tup)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Errorf("scanned %d tuples, want %d", i, n)
	}
	if m.Pool().PinnedPages() != 0 {
		t.Errorf("pinned pages after scan = %d", m.Pool().PinnedPages())
	}
}

func TestHeapScanColdIsOneReadPerPage(t *testing.T) {
	m := newManager(t, 4)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := h.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Str("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read something else to push the heap's pages out.
	other, err := m.CreateHeap("other", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := other.Append(frel.NewTuple(1, frel.Crisp(0), frel.Str("y"))); err != nil {
			t.Fatal(err)
		}
	}
	m.Stats().Reset()
	sc := h.Scan()
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	reads, _, _, _ := m.Stats().Snapshot()
	if reads != h.NumPages() {
		t.Errorf("cold scan reads = %d, want %d (one per page)", reads, h.NumPages())
	}
}

func TestHeapReadAll(t *testing.T) {
	m := newManager(t, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := frel.NewRelation(testSchema())
	for i := 0; i < 50; i++ {
		tup := frel.NewTuple(float64(i%10)/10+0.05, frel.Crisp(float64(i)), frel.Str("n"))
		want.Append(tup)
		if err := h.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	got, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Errorf("ReadAll mismatch")
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	schema := testSchema()
	schema.Pad = PageSize // forces the record over MaxRecordSize
	m := newManager(t, 8)
	h, err := m.CreateHeap("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	err = h.Append(frel.NewTuple(1, frel.Crisp(1), frel.Str("x")))
	if err == nil || !strings.Contains(err.Error(), "max record size") {
		t.Errorf("oversized record: got %v", err)
	}
}

func TestHeapPaddingGrowsPages(t *testing.T) {
	small := testSchema()
	big := testSchema()
	big.Pad = 1024
	m := newManager(t, 64)
	hs, _ := m.CreateHeap("s", small)
	hb, _ := m.CreateHeap("b", big)
	for i := 0; i < 200; i++ {
		tup := frel.NewTuple(1, frel.Crisp(float64(i)), frel.Str("x"))
		if err := hs.Append(tup); err != nil {
			t.Fatal(err)
		}
		if err := hb.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	if hb.NumPages() <= hs.NumPages() {
		t.Errorf("padded heap pages %d, plain %d", hb.NumPages(), hs.NumPages())
	}
}

func TestHeapDrop(t *testing.T) {
	m := newManager(t, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(frel.NewTuple(1, frel.Crisp(1), frel.Str("x"))); err != nil {
		t.Fatal(err)
	}
	path := h.pager.Path()
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagerFS(OsFS{}, path, m.Stats()); err != nil {
		// Re-creating over the removed path must succeed (file is gone).
		t.Errorf("path not reusable after Drop: %v", err)
	}
}

func TestCreateTempUnique(t *testing.T) {
	m := newManager(t, 8)
	a, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if a.pager.Path() == b.pager.Path() {
		t.Errorf("temp files share a path: %s", a.pager.Path())
	}
}

func TestStatsIOAndReset(t *testing.T) {
	s := &Stats{}
	s.Reads.Add(3)
	s.Writes.Add(4)
	if s.IO() != 7 {
		t.Errorf("IO = %d", s.IO())
	}
	s.Reset()
	if s.IO() != 0 {
		t.Errorf("IO after reset = %d", s.IO())
	}
	if !strings.Contains(s.String(), "reads=0") {
		t.Errorf("String = %q", s.String())
	}
}

func TestBufferPoolCapacity(t *testing.T) {
	if bp := NewBufferPool(10, nil); bp.Capacity() != 10 {
		t.Errorf("Capacity = %d", bp.Capacity())
	}
	if bp := NewBufferPool(0, nil); bp.Capacity() != 1 {
		t.Errorf("Capacity of NewBufferPool(0) = %d, want clamp to 1", bp.Capacity())
	}
}

func TestHeapVersionAndNextBatch(t *testing.T) {
	m := newManager(t, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h.Version() != 0 {
		t.Fatalf("fresh heap version = %d", h.Version())
	}
	const n = 700
	for i := 0; i < n; i++ {
		tup := frel.NewTuple(0.5, frel.Crisp(float64(i)), frel.Str(fmt.Sprintf("name-%d", i)))
		if err := h.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	if h.Version() != n {
		t.Fatalf("version after %d appends = %d", n, h.Version())
	}

	sc := h.Scan()
	defer sc.Close()
	buf := make([]frel.Tuple, 0, 256)
	i := 0
	for {
		buf = sc.NextBatch(buf)
		if len(buf) == 0 {
			break
		}
		for _, tup := range buf {
			if tup.Values[0].Num.A != float64(i) {
				t.Fatalf("batch tuple %d = %v", i, tup)
			}
			i++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("batched scan saw %d tuples, want %d", i, n)
	}
}

// TestBufferPoolCloseRecyclesBuffers: a closed pool hands its page buffers
// to later pools, which must still see exactly what is on disk (a recycled
// buffer is fully overwritten by the read, or zeroed for a new page).
func TestBufferPoolCloseRecyclesBuffers(t *testing.T) {
	p := newTestPager(t, nil)
	first := NewBufferPool(4, nil)
	for i := byte(0); i < 3; i++ {
		f, err := first.NewPage(p)
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data {
			f.Data[j] = 0xA0 + i
		}
		first.Unpin(f, true)
	}
	if err := first.FlushAll(); err != nil {
		t.Fatal(err)
	}
	first.Close()
	if n := first.PinnedPages(); n != 0 {
		t.Errorf("closed pool still pins %d pages", n)
	}

	second := NewBufferPool(4, nil)
	for i := byte(0); i < 3; i++ {
		f, err := second.Get(p, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != 0xA0+i || f.Data[PageSize-1] != 0xA0+i {
			t.Errorf("page %d reads %x..%x after a pool was closed", i, f.Data[0], f.Data[PageSize-1])
		}
		second.Unpin(f, false)
	}
	f, err := second.NewPage(p)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range f.Data {
		if b != 0 {
			t.Fatalf("new page byte %d = %x, want zero", j, b)
		}
	}
	second.Unpin(f, false)
}

// TestPageWriterMatchesAppendRaw: a page writer lays out the same pages
// as record-at-a-time appends (continuing a partly filled last page after
// a Close), holds at most one pin while it writes, and none once closed.
func TestPageWriterMatchesAppendRaw(t *testing.T) {
	m := newManager(t, 8)
	want, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	w, err := got.PageWriter()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		rec := []byte(strings.Repeat(string(rune('a'+i%26)), 1+(i*37)%300))
		if err := want.AppendRaw(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if pins := m.Pool().PinnedPages(); pins != 1 {
			t.Fatalf("record %d: %d pages pinned while writing, want 1", i, pins)
		}
		if i == 300 {
			w.Close()
		}
	}
	if err := w.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record: want an error")
	}
	w.Close()
	if pins := m.Pool().PinnedPages(); pins != 0 {
		t.Fatalf("%d pages pinned after Close", pins)
	}
	if got.NumPages() != want.NumPages() || got.NumTuples() != want.NumTuples() {
		t.Fatalf("page writer: %d pages, %d records; appends: %d pages, %d records",
			got.NumPages(), got.NumTuples(), want.NumPages(), want.NumTuples())
	}
	for pid := PageID(0); pid < PageID(want.NumPages()); pid++ {
		a, err := m.Pool().Get(want.pager, pid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Pool().Get(got.pager, pid)
		if err != nil {
			t.Fatal(err)
		}
		if string(a.Data) != string(b.Data) {
			t.Errorf("page %d differs", pid)
		}
		m.Pool().Unpin(a, false)
		m.Pool().Unpin(b, false)
	}
}

func TestPageWriterRejectsLoggedHeap(t *testing.T) {
	m, err := NewManagerOptions("db", ManagerOptions{PoolPages: 8, FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PageWriter(); err == nil {
		t.Error("page writer on a logged heap: want an error")
	}
}

// TestLiveTemps: the manager counts temporaries from CreateTemp until
// they are dropped.
func TestLiveTemps(t *testing.T) {
	m := newManager(t, 8)
	var temps []*HeapFile
	for i := 0; i < 5; i++ {
		h, err := m.CreateTemp(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		temps = append(temps, h)
	}
	if n := m.LiveTemps(); n != len(temps) {
		t.Fatalf("LiveTemps = %d, want %d", n, len(temps))
	}
	for _, h := range temps {
		if err := h.Drop(); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.LiveTemps(); n != 0 {
		t.Fatalf("LiveTemps = %d after dropping every temporary, want 0", n)
	}
	if _, err := m.CreateTemp(testSchema()); err != nil {
		t.Fatal(err)
	}
	if n := m.LiveTemps(); n != 1 {
		t.Fatalf("LiveTemps = %d after creating one more, want 1", n)
	}
}

// TestFailedNewPageAllocatesNothing: a NewPage the pool has no room for
// leaves the pager's page count alone, so an unlogged temporary, which
// has no transaction to roll back, keeps its pages contiguous and the
// next append lands on the page a scan reads.
func TestFailedNewPageAllocatesNothing(t *testing.T) {
	m, err := NewManagerOptions("db", ManagerOptions{PoolPages: 1, FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.CreateTemp(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Pool().NewPage(other.pager)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(walTuple(0)); err == nil {
		t.Fatal("append with every frame pinned succeeded")
	}
	m.Pool().Unpin(f, false)
	if n := h.pager.NumPages(); n != 0 {
		t.Fatalf("failed NewPage left the pager at %d pages, want 0", n)
	}
	if err := h.Append(walTuple(0)); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(walPrefix(1), 0) {
		t.Errorf("temporary holds %d tuples, want the 1 appended", got.Len())
	}
}
