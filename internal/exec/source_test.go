package exec

import (
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/storage"
)

func heapWith(t *testing.T, n int) (*storage.Manager, *storage.HeapFile) {
	t.Helper()
	m := storage.NewManager(t.TempDir(), 8)
	schema := frel.NewSchema("R",
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
	)
	h, err := m.CreateHeap("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := h.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Crisp(float64(i%10)))); err != nil {
			t.Fatal(err)
		}
	}
	return m, h
}

func TestHeapSourceScan(t *testing.T) {
	m, h := heapWith(t, 500)
	src := NewHeapSource(h)
	if src.Schema() != h.Schema {
		t.Errorf("Schema mismatch")
	}
	rel, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 500 {
		t.Errorf("Len = %d", rel.Len())
	}
	if m.Pool().PinnedPages() != 0 {
		t.Errorf("pinned pages leaked")
	}
}

func TestHeapSourceEarlyClose(t *testing.T) {
	m, h := heapWith(t, 500)
	it, err := NewHeapSource(h).Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.NextBatch(); !ok {
		t.Fatal("no first batch")
	}
	it.Close()
	it.Close() // idempotent
	if _, ok := it.NextBatch(); ok {
		t.Errorf("NextBatch after Close should fail")
	}
	if m.Pool().PinnedPages() != 0 {
		t.Errorf("pinned pages leaked after early close")
	}
}

func TestMergeJoinOverHeapSources(t *testing.T) {
	m, h := heapWith(t, 300)
	_, h2 := heapWith(t, 300)
	mj := mergeJoin(t, NewHeapSource(h), NewHeapSource(h2), "X", "X", fuzzy.Crisp(0), nil)
	// The heap was written in ID order, which is also non-decreasing in X
	// begin? It is not (X = i%10); the join must detect the disorder.
	if _, err := Collect(mj); err == nil {
		t.Errorf("unsorted heap input: want error")
	}
	_ = m
}

func TestMergeJoinHeapSortedInputs(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 8)
	schema := frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
	mk := func(name string) *storage.HeapFile {
		h, err := m.CreateHeap(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := h.Append(frel.NewTuple(1, frel.Num(fuzzy.Tri(float64(i)-0.4, float64(i), float64(i)+0.4)))); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	r, s := mk("r"), mk("s")
	mj := mergeJoin(t, NewHeapSource(r), NewHeapSource(s), "X", "X", fuzzy.Crisp(0), nil)
	rel, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	// Each value overlaps only its twin (width 0.4 < spacing 1).
	if rel.Len() != 400 {
		t.Errorf("Len = %d, want 400", rel.Len())
	}
	if m.Pool().PinnedPages() != 0 {
		t.Errorf("pinned pages leaked")
	}
}

func TestEarlyCloseJoins(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 8)
	schema := frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
	mk := func(name string) *storage.HeapFile {
		h, err := m.CreateHeap(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := h.Append(frel.NewTuple(1, frel.Crisp(float64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	r, s := mk("r"), mk("s")

	mj := mergeJoin(t, NewHeapSource(r), NewHeapSource(s), "X", "X", fuzzy.Crisp(0), nil)
	it, err := mj.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.NextBatch(); !ok {
		t.Fatal("no batch")
	}
	it.Close()

	// The whole-inner window: the cross product.
	whole := mergeJoin(t, NewHeapSource(r), NewHeapSource(s), "", "", fuzzy.Crisp(0), pairProgram(t))
	it2, err := whole.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it2.NextBatch(); !ok {
		t.Fatal("no batch")
	}
	it2.Close()

	// Complemented equality: the twin's penalty is 1, every outer survives.
	am, err := NewMergeAntiMin(NewHeapSource(r), NewHeapSource(s), "X", "X",
		pairProgram(t, kernel.PairStep{Kind: kernel.StepCompare, Op: fuzzy.OpEq, Neg: true,
			Left: kernel.LeftColumn(0), Right: kernel.RightColumn(0)}), NewOpStats("merge-anti-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	it3, err := am.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it3.NextBatch(); !ok {
		t.Fatal("no batch")
	}
	it3.Close()

	if m.Pool().PinnedPages() != 0 {
		t.Errorf("pinned pages leaked after early closes")
	}
}
