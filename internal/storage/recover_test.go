package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frel"
)

func TestOpenPagerExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pg")
	stats := &Stats{}
	p, err := OpenPagerFS(OsFS{}, path, stats)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		id := p.Allocate()
		buf[0] = byte(i + 1)
		if err := p.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPagerExistingFS(OsFS{}, path, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })
	if p2.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", p2.NumPages())
	}
	in := make([]byte, PageSize)
	if err := p2.ReadPage(1, in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 2 {
		t.Errorf("page 1 byte = %d", in[0])
	}
}

func TestOpenPagerExistingErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenPagerExistingFS(OsFS{}, filepath.Join(dir, "absent.pg"), &Stats{}); err == nil {
		t.Errorf("missing file: want error")
	}
	// Misaligned file.
	bad := filepath.Join(dir, "bad.pg")
	if err := os.WriteFile(bad, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagerExistingFS(OsFS{}, bad, &Stats{}); err == nil {
		t.Errorf("misaligned file: want error")
	}
	if _, err := OpenPagerExistingFS(OsFS{}, filepath.Join(dir, "x.pg"), nil); err == nil {
		t.Errorf("nil stats: want error")
	}
}

func TestRecoverHeapFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 8)
	schema := testSchema()
	h, err := m.CreateHeap("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	want := frel.NewRelation(schema)
	for i := 0; i < 1200; i++ {
		want.Append(frel.NewTuple(0.25+float64(i%4)/8, frel.Crisp(float64(i)), frel.Str("n")))
	}
	if err := h.AppendAll(want); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.Bytes() != h.NumPages()*PageSize {
		t.Errorf("Bytes = %d", h.Bytes())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(dir, 8)
	h2, err := m2.OpenHeap("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 1200 || h2.NumPages() != h.NumPages() {
		t.Errorf("recovered %d tuples / %d pages, want %d / %d",
			h2.NumTuples(), h2.NumPages(), h.NumTuples(), h.NumPages())
	}
	got, err := h2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Errorf("recovered data differs")
	}

	// Appending continues in the last page when there is room.
	pagesBefore := h2.NumPages()
	if err := h2.Append(frel.NewTuple(1, frel.Crisp(1200), frel.Str("n"))); err != nil {
		t.Fatal(err)
	}
	if h2.NumPages() != pagesBefore {
		t.Errorf("append after recovery allocated a new page unnecessarily")
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3 := NewManager(dir, 8)
	defer m3.Close()
	h3, err := m3.OpenHeap("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	if h3.NumTuples() != 1201 {
		t.Errorf("NumTuples after second recovery = %d", h3.NumTuples())
	}
}

func TestRecoverHeapFileEmpty(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 8)
	if _, err := m.CreateHeap("r", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(dir, 8)
	defer m2.Close()
	h, err := m2.OpenHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTuples() != 0 || h.NumPages() != 0 {
		t.Errorf("empty heap recovered as %d/%d", h.NumTuples(), h.NumPages())
	}
}

// TestRecoverHeapFileCorrupt: a checkpointed heap whose last page no
// longer matches the checkpoint is walked at open, and a record length
// that overruns the page fails the open.
func TestRecoverHeapFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(frel.NewTuple(1, frel.Crisp(1), frel.Str("x"))); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record length of the last page's first record so it
	// overruns the page.
	path := filepath.Join(dir, "r.heap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - PageSize
	data[last+2] = 0xFF
	data[last+3] = 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManagerOptions(dir, ManagerOptions{PoolPages: 8})
	if err == nil {
		m2.Close()
		t.Fatal("corrupt heap: open succeeded, want error")
	}
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) {
		t.Errorf("corrupt heap: err = %v, want a *CorruptPageError", err)
	}
}

func TestAppendAll(t *testing.T) {
	m := NewManager(t.TempDir(), 8)
	h, err := m.CreateHeap("r", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rel := frel.NewRelation(testSchema())
	for i := 0; i < 25; i++ {
		rel.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Str("y")))
	}
	if err := h.AppendAll(rel); err != nil {
		t.Fatal(err)
	}
	if h.NumTuples() != 25 {
		t.Errorf("NumTuples = %d", h.NumTuples())
	}
}

func TestManagerDirAndPoolStats(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 8)
	if m.Dir() != dir {
		t.Errorf("Dir = %q", m.Dir())
	}
	if m.Pool().Stats() != m.Stats() {
		t.Errorf("pool and manager should share stats")
	}
}
