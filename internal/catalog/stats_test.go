package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// requireExactStats requires every relation's Stats() to deep-equal the
// statistics a fresh scan of its heap builds: equal encodings, which is
// every field bit for bit, KMV hashes included.
func requireExactStats(t *testing.T, c *Catalog, label string) {
	t.Helper()
	for _, name := range c.Relations() {
		h, err := c.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Stats()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		rel, err := h.ReadAll()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		want := frel.NewTableStats(len(h.Schema.Attrs))
		want.ObserveAll(rel.Tuples)
		if !bytes.Equal(frel.AppendStats(nil, got), frel.AppendStats(nil, want)) {
			t.Errorf("%s: %s statistics differ from a fresh scan:\n got %+v\nwant %+v", label, name, got, want)
		}
	}
}

// statsTuple is the i-th tuple of the statistics tests: a fuzzy number of
// varying width, a string with repeats, and a varied degree.
func statsTuple(i int) frel.Tuple {
	x, w := float64(i), float64(i%5)
	return frel.NewTuple(0.125+float64(i%8)/8,
		frel.Num(fuzzy.Trapezoid{A: x - w, B: x, C: x, D: x + w}),
		frel.Str(fmt.Sprint("s", i%23)))
}

func statsSchema() *frel.Schema {
	return frel.NewSchema("R",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString})
}

// openStatsCatalog opens the catalog in fs's "db".
func openStatsCatalog(t *testing.T, fs storage.FS) *Catalog {
	t.Helper()
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Open(mgr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStatsExactAcrossReopen walks one database through every path that
// changes a relation's heap or its recorded statistics and, after each
// reopen, requires every relation's statistics to equal a fresh scan's.
func TestStatsExactAcrossReopen(t *testing.T) {
	fs := storage.NewMemFS()
	c := openStatsCatalog(t, fs)
	reopen := func(label string) {
		t.Helper()
		if err := c.Manager().Close(); err != nil {
			t.Fatal(err)
		}
		c = openStatsCatalog(t, fs)
		requireExactStats(t, c, label)
	}
	// reopenAdopting also requires that no relation's statistics were
	// built by a scan: they came from the checkpoint entry, observed on
	// top of redo's replayed tail where there was one.
	reopenAdopting := func(label string) {
		t.Helper()
		if err := c.Manager().Close(); err != nil {
			t.Fatal(err)
		}
		c = openStatsCatalog(t, fs)
		for _, name := range c.Relations() {
			h, _ := c.Relation(name)
			before := c.Manager().Stats().Reads.Load()
			if _, err := h.Stats(); err != nil {
				t.Fatal(err)
			}
			if reads := c.Manager().Stats().Reads.Load() - before; reads != 0 {
				t.Errorf("%s: %s statistics read %d pages, want none", label, name, reads)
			}
		}
		requireExactStats(t, c, label)
	}
	rel := func(name string) *storage.HeapFile {
		t.Helper()
		h, err := c.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	appendN := func(h *storage.HeapFile, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := h.Append(statsTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, name := range []string{"R", "S"} {
		h, err := c.CreateRelation(name, statsSchema())
		if err != nil {
			t.Fatal(err)
		}
		appendN(h, 0, 700)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c.Manager().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopenAdopting("clean checkpoint")

	appendN(rel("R"), 700, 760) // committed tail
	reopenAdopting("committed tail")

	if _, err := c.Manager().Begin(); err != nil {
		t.Fatal(err)
	}
	appendN(rel("R"), 760, 780) // uncommitted tail
	reopen("uncommitted tail")

	tx, err := c.Manager().Begin()
	if err != nil {
		t.Fatal(err)
	}
	appendN(rel("S"), 700, 710)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireExactStats(t, c, "rollback")
	if err := c.Manager().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopenAdopting("rollback, checkpoint")

	// DELETE writes the survivors into a fresh heap, here after a larger
	// temporary was dropped: the new heap holds only its own pages.
	spill, err := c.Manager().CreateTemp(statsSchema())
	if err != nil {
		t.Fatal(err)
	}
	appendN(spill, 0, 3000)
	if err := spill.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := spill.Drop(); err != nil {
		t.Fatal(err)
	}
	var kept []frel.Tuple
	for i := 0; i < 760; i += 3 {
		kept = append(kept, statsTuple(i))
	}
	if err := c.ReplaceRelationContents("R", kept); err != nil {
		t.Fatal(err)
	}
	if n := rel("R").NumTuples(); n != int64(len(kept)) {
		t.Fatalf("after delete: %d tuples, want %d", n, len(kept))
	}
	requireExactStats(t, c, "delete")
	reopen("delete")
	if n := rel("R").NumTuples(); n != int64(len(kept)) {
		t.Fatalf("reopened after delete: %d tuples, want %d", n, len(kept))
	}
	appendN(rel("R"), 900, 905)
	reopen("insert after delete")

	if _, err := c.CreateIndex("r_x", "R", "X"); err != nil {
		t.Fatal(err)
	}
	appendN(rel("R"), 905, 910)
	reopen("create index")
	if err := c.DropIndex("r_x"); err != nil {
		t.Fatal(err)
	}
	reopen("drop index")

	if err := c.DropRelation("S"); err != nil {
		t.Fatal(err)
	}
	h, err := c.CreateRelation("S", statsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	appendN(h, 2000, 2040)
	reopenAdopting("drop and re-create")
}

// paddedTuple is a tuple of the adversarial DELETE relation: a small one
// for k = 0, otherwise one whose string fills over 40 % of a page.
func paddedTuple(k int) frel.Tuple {
	s := "x"
	if k > 0 {
		s = strings.Repeat(string(rune('a'+k)), storage.PageSize*2/5)
	}
	return frel.NewTuple(1, frel.Crisp(float64(k)), frel.Str(s))
}

// TestDeleteCrashAfterRename: a DELETE that removes the small first tuple
// of [small, big, big] [big] writes a fresh heap whose page 0 is
// [big, big] and whose last page and page count are byte for byte the
// old file's. A crash anywhere in the DELETE — in particular after the
// catalog save that commits it and before the old heap is dropped — must
// reopen to the old or the new contents with matching tuple count and
// exact statistics, from the heap the catalog names, and leave no other
// heap file behind.
func TestDeleteCrashAfterRename(t *testing.T) {
	all := []frel.Tuple{paddedTuple(0), paddedTuple(1), paddedTuple(2), paddedTuple(3)}
	setup := func() *storage.MemFS {
		mem := storage.NewMemFS()
		c := openStatsCatalog(t, mem)
		h, err := c.CreateRelation("P", frel.NewSchema("P",
			frel.Attribute{Name: "K", Kind: frel.KindNumber},
			frel.Attribute{Name: "S", Kind: frel.KindString}))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(&frel.Relation{Schema: h.Schema, Tuples: all}); err != nil {
			t.Fatal(err)
		}
		if h.NumPages() != 2 {
			t.Fatalf("relation has %d pages, want 2", h.NumPages())
		}
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
		if err := c.Manager().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.Manager().Close(); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	del := func(fs storage.FS) error {
		mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: fs})
		if err != nil {
			return err
		}
		c, _, err := Open(mgr)
		if err != nil {
			return err
		}
		if err := c.ReplaceRelationContents("P", all[1:]); err != nil {
			return err
		}
		return mgr.Close()
	}

	counter := storage.NewFaultFS(setup(), storage.FaultStop, 0, 1)
	if err := del(counter); err != nil {
		t.Fatal(err)
	}
	sawNew := false
	for n := int64(1); n <= counter.Ops(); n++ {
		mem := setup()
		ffs := storage.NewFaultFS(mem, storage.FaultStop, n, 1)
		err := del(ffs)
		if !ffs.Crashed() {
			continue
		}
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("crash at op %d: err = %v", n, err)
		}
		c := openStatsCatalog(t, mem)
		h, err := c.Relation("P")
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		want := all
		if got.Len() == 3 {
			want, sawNew = all[1:], true
		}
		if h.NumTuples() != int64(len(want)) || !got.Equal(&frel.Relation{Schema: h.Schema, Tuples: want}, 0) {
			t.Fatalf("crash at op %d: %d tuples read, %d counted; want %d", n, got.Len(), h.NumTuples(), len(want))
		}
		requireExactStats(t, c, fmt.Sprintf("crash at op %d", n))
		if got := heapFiles(t, mem); !slices.Equal(got, []string{h.Name() + ".heap"}) {
			t.Fatalf("crash at op %d: heap files %v, catalog names %s", n, got, h.Name())
		}
		if err := c.Manager().Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawNew {
		t.Fatal("no crash point fell after the catalog save that commits the rewrite")
	}
}
