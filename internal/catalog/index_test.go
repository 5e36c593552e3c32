package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

func indexTestRelation(t *testing.T, c *Catalog, name string, n int) *storage.HeapFile {
	t.Helper()
	schema := frel.NewSchema(name,
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	)
	h, err := c.CreateRelation(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	rel := frel.NewRelation(schema)
	for i := 0; i < n; i++ {
		// Descending values so the build actually has to sort.
		v := float64(n - i)
		rel.Append(frel.Tuple{Values: []frel.Value{frel.Num(fuzzy.Tri(v-1, v, v+1)), frel.Str("t")}, D: 1})
	}
	if err := h.AppendAll(rel); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCreateIndexBuildsSortedEntries(t *testing.T) {
	c := newCatalog(t)
	h := indexTestRelation(t, c, "R", 50)
	ix, err := c.CreateIndex("r_x", "R", "X")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Pos() != 0 || ix.Rel != "R" {
		t.Errorf("index = %+v", ix)
	}
	tids, err := storage.ReadIndexEntries(ix.Heap())
	if err != nil {
		t.Fatal(err)
	}
	// The relation holds descending values, so its sorted order is the
	// tids backwards.
	if int64(len(tids)) != h.NumTuples() {
		t.Fatalf("index has %d entries, relation %d tuples", len(tids), h.NumTuples())
	}
	for i, tid := range tids {
		if want := uint64(len(tids) - 1 - i); tid != want {
			t.Fatalf("entry %d = tid %d, want %d", i, tid, want)
		}
	}
	if got := c.IndexForHeap(h, 0); got != ix {
		t.Errorf("IndexForHeap = %v", got)
	}
	if got := c.IndexForHeap(h, 1); got != nil {
		t.Errorf("IndexForHeap on unindexed attribute = %v", got)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	c := newCatalog(t)
	indexTestRelation(t, c, "R", 5)
	if _, err := c.CreateIndex("i1", "NOPE", "X"); err == nil {
		t.Errorf("unknown relation: want error")
	}
	if _, err := c.CreateIndex("i1", "R", "NOPE"); err == nil {
		t.Errorf("unknown attribute: want error")
	}
	if _, err := c.CreateIndex("i1", "R", "NAME"); err == nil {
		t.Errorf("string attribute: want error")
	}
	if _, err := c.CreateIndex("i1", "R", "X"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("I1", "R", "X"); err == nil {
		t.Errorf("duplicate name (case-insensitive): want error")
	}
	if _, err := c.CreateIndex("i2", "r", "x"); err == nil {
		t.Errorf("second index on same attribute: want error")
	}
}

func TestDropIndex(t *testing.T) {
	c := newCatalog(t)
	h := indexTestRelation(t, c, "R", 5)
	if _, err := c.CreateIndex("i1", "R", "X"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("I1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("i1"); err == nil {
		t.Errorf("double drop: want error")
	}
	if got := c.IndexForHeap(h, 0); got != nil {
		t.Errorf("IndexForHeap after drop = %v", got)
	}
}

func TestDropRelationCascadesIndexes(t *testing.T) {
	c := newCatalog(t)
	indexTestRelation(t, c, "R", 5)
	if _, err := c.CreateIndex("i1", "R", "X"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LookupIndex("i1"); ok {
		t.Errorf("index survived its relation")
	}
	// The name is free again for a fresh relation + index.
	indexTestRelation(t, c, "R", 3)
	if _, err := c.CreateIndex("i1", "R", "X"); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceRelationContentsRebuildsIndex(t *testing.T) {
	c := newCatalog(t)
	h := indexTestRelation(t, c, "R", 10)
	ix, err := c.CreateIndex("i1", "R", "X")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceRelationContents("R", rel.Tuples[:4]); err != nil {
		t.Fatal(err)
	}
	tids, err := storage.ReadIndexEntries(ix.Heap())
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 4 {
		t.Fatalf("rebuilt index has %d entries, want 4", len(tids))
	}
	nh, err := c.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.IndexForHeap(nh, 0); got != ix {
		t.Errorf("IndexForHeap after replace = %v", got)
	}
}

func TestIndexPersistence(t *testing.T) {
	fs := storage.NewMemFS()
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 32, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c := New(mgr)
	indexTestRelation(t, c, "R", 20)
	if _, err := c.CreateIndex("r_x", "R", "X"); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 32, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c2, fresh, err := Open(mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("want existing catalog")
	}
	ix, ok := c2.LookupIndex("r_x")
	if !ok {
		t.Fatal("index not restored")
	}
	tids, err := storage.ReadIndexEntries(ix.Heap())
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 20 {
		t.Fatalf("restored index has %d entries, want 20", len(tids))
	}
}

// TestOpenRebuildsStaleIndexAndRemovesOrphans: Open keeps an index its
// relation outgrew (the later tuples are its tail), rebuilds one longer
// than its relation (left by a crash between DELETE's contents swap and
// its rebuild), and deletes index files the catalog does not reference.
func TestOpenRebuildsStaleIndexAndRemovesOrphans(t *testing.T) {
	fs := storage.NewMemFS()
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 32, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c := New(mgr)
	r := indexTestRelation(t, c, "R", 10)
	if _, err := c.CreateIndex("r_x", "R", "X"); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(frel.Tuple{Values: []frel.Value{frel.Crisp(0), frel.Str("t")}, D: 1}); err != nil {
		t.Fatal(err)
	}
	indexTestRelation(t, c, "Q", 5)
	stale, err := c.CreateIndex("q_x", "Q", "X")
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Heap().AppendRaw(storage.AppendIndexEntry(nil, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// An orphaned index file from a crashed build.
	orphan, err := mgr.CreateHeap("idx-r-orphan", storage.IndexSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := orphan.AppendRaw(storage.AppendIndexEntry(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if err := orphan.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 32, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Open(mgr2)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"r_x": 10, "q_x": 5} {
		ix, ok := c2.LookupIndex(name)
		if !ok {
			t.Fatalf("index %s not restored", name)
		}
		tids, err := storage.ReadIndexEntries(ix.Heap())
		if err != nil {
			t.Fatal(err)
		}
		if len(tids) != want {
			t.Errorf("index %s has %d entries after Open, want %d", name, len(tids), want)
		}
	}
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "idx-r-orphan.heap" {
			t.Errorf("orphan index file survived Open")
		}
	}
}

// syncFailFS fails the first sync of the write-ahead log after it is
// armed; every other operation reaches the wrapped file system.
type syncFailFS struct {
	storage.FS
	armed bool
}

var errSyncFault = errors.New("injected log sync failure")

func (fs *syncFailFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "wal" {
		return f, err
	}
	return syncFailFile{f, fs}, nil
}

type syncFailFile struct {
	storage.File
	fs *syncFailFS
}

func (f syncFailFile) Sync() error {
	if f.fs.armed {
		f.fs.armed = false
		return errSyncFault
	}
	return f.File.Sync()
}

// TestCreateIndexFailureRollsBack: an index build that fails halfway (the
// pool is full of the build's uncommitted pages and the log cannot be
// synced to release them) rolls its transaction back and deletes the
// half-built entry file.
func TestCreateIndexFailureRollsBack(t *testing.T) {
	fs := &syncFailFS{FS: storage.NewMemFS()}
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	c := New(mgr)
	h := indexTestRelation(t, c, "R", 1200)
	fs.armed = true
	if _, err := c.CreateIndex("r_x", "R", "X"); !errors.Is(err, errSyncFault) {
		t.Fatalf("CreateIndex: err = %v, want the injected sync failure", err)
	}
	if fs.armed {
		t.Fatal("the build never synced the log; grow the relation")
	}
	if _, ok := c.LookupIndex("r_x"); ok {
		t.Error("failed index is in the catalog")
	}
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatalf("failed build left a transaction open: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, storage.IndexPrefix) {
			t.Errorf("failed build left %s behind", n)
		}
	}
	if h.NumTuples() != 1200 || h.CommittedTuples() != 1200 {
		t.Errorf("relation has %d tuples, %d committed, want 1200", h.NumTuples(), h.CommittedTuples())
	}
}
