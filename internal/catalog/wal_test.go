package catalog

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/storage"
)

// newWALCatalog opens a catalog over fs (directory "db"),
// replaying any existing log and catalog.json.
func newWALCatalog(t *testing.T, fs storage.FS) *Catalog {
	t.Helper()
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 8, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Open(mgr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func catTuple(i int) frel.Tuple {
	return frel.NewTuple(0.25+float64(i%4)/8, frel.Crisp(float64(i)))
}

// heapFiles returns the sorted heap file names in fs's directory "db".
func heapFiles(t *testing.T, fs storage.FS) []string {
	t.Helper()
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".heap") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestWALReplaceRelationContents: the DELETE rewrite path (a fresh logged
// heap under the relation's next storage name, swapped in by a catalog
// save, the old heap dropped) keeps the survivors across a reopen, after
// an unclean close and after a clean one, and leaves no file behind.
func TestWALReplaceRelationContents(t *testing.T) {
	fs := storage.NewMemFS()
	c := newWALCatalog(t, fs)
	if c.Manager().Dir() != "db" {
		t.Fatalf("manager misconfigured")
	}
	schema := frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
	h, err := c.CreateRelation("R", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := h.Append(catTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the even tuples.
	var kept []frel.Tuple
	for i := 0; i < 8; i += 2 {
		kept = append(kept, catTuple(i))
	}
	old := h.Name()
	if err := c.ReplaceRelationContents("R", kept); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumTuples() != 4 {
		t.Errorf("after replace: %d tuples", h2.NumTuples())
	}
	if old != "r" || h2.Name() != "r.1" {
		t.Errorf("storage name %q -> %q, want r -> r.1", old, h2.Name())
	}
	if got := heapFiles(t, fs); !slices.Equal(got, []string{"r.1.heap"}) {
		t.Errorf("heap files after replace: %v, want [r.1.heap]", got)
	}
	// More appends after the swap land in the swapped-in heap's log.
	if err := h2.Append(catTuple(8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Manager().Close(); err != nil {
		t.Fatal(err)
	}

	c2 := newWALCatalog(t, fs)
	h3, err := c2.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	got, err := h3.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := frel.NewRelation(schema)
	want.Append(kept...)
	want.Append(catTuple(8))
	if !got.Equal(want, 0) {
		t.Errorf("reopened relation differs: %d tuples, want %d", got.Len(), want.Len())
	}

	// A clean close: Open finds exactly the files the catalog names and
	// removes none.
	if err := c2.Manager().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Manager().Close(); err != nil {
		t.Fatal(err)
	}
	before := heapFiles(t, fs)
	c3 := newWALCatalog(t, fs)
	if after := heapFiles(t, fs); !slices.Equal(after, before) || !slices.Equal(after, []string{"r.1.heap"}) {
		t.Errorf("heap files %v before the reopen, %v after, want [r.1.heap] both", before, after)
	}
	h4, err := c3.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if h4.Name() != "r.1" || h4.NumTuples() != int64(want.Len()) {
		t.Errorf("clean reopen: %s with %d tuples, want r.1 with %d", h4.Name(), h4.NumTuples(), want.Len())
	}
	// The next rewrite takes the next name.
	if err := c3.ReplaceRelationContents("R", kept[:1]); err != nil {
		t.Fatal(err)
	}
	if got := heapFiles(t, fs); !slices.Equal(got, []string{"r.2.heap"}) {
		t.Errorf("heap files after a second replace: %v, want [r.2.heap]", got)
	}
}

// TestWALDropRelation: dropping under WAL saves the catalog before the
// heap file goes away, so a reopen sees a consistent (empty) catalog.
func TestWALDropRelation(t *testing.T) {
	fs := storage.NewMemFS()
	c := newWALCatalog(t, fs)
	schema := frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
	h, err := c.CreateRelation("R", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(catTuple(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := c.Manager().Close(); err != nil {
		t.Fatal(err)
	}
	c2 := newWALCatalog(t, fs)
	if names := c2.Relations(); len(names) != 0 {
		t.Errorf("relations after drop+reopen: %v", names)
	}
}
