package extsort

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

func xSchema() *frel.Schema {
	return frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
}

// byX is the ≼ order on the first attribute, X in every test schema here.
var byX = Order{Attr: 0}

// check returns the first position of h whose tuple sorts before its
// predecessor's under o (-1 when h is sorted). It decodes whole tuples and
// compares them with frel.Compare, sharing nothing with the sorter but the
// order's definition.
func check(h *storage.HeapFile, o Order) (int64, error) {
	rel, err := h.ReadAll()
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(rel.Tuples); i++ {
		if frel.Compare(rel.Tuples[i].Values[o.Attr], rel.Tuples[i-1].Values[o.Attr]) < 0 {
			return int64(i), nil
		}
	}
	return -1, nil
}

// streamHeap sorts the first limit tuples of h (limit < 0: all of them)
// by o, reading them through a heap scan as the engine sorts a base
// relation.
func streamHeap(s *Sorter, h *storage.HeapFile, limit int64, o Order) (*Stream, error) {
	sc := h.ScanAt(limit)
	defer sc.Close()
	return s.Stream(h.Schema, sc, h.Bytes(), o)
}

// sortToHeap drains a streamed sort of src by o into a fresh temporary
// heap file through a page writer, the way a cached sorted copy is
// written. On error the file is dropped.
func sortToHeap(s *Sorter, src *storage.HeapFile, o Order) (*storage.HeapFile, Stats, error) {
	str, err := streamHeap(s, src, -1, o)
	if err != nil {
		return nil, Stats{}, err
	}
	defer str.Close()
	out, err := s.mgr.CreateTemp(src.Schema)
	if err != nil {
		return nil, Stats{}, err
	}
	w, err := out.PageWriter()
	if err == nil {
		for rec, ok := str.Next(); ok && err == nil; rec, ok = str.Next() {
			err = w.Append(rec)
		}
		w.Close()
	}
	if err == nil {
		err = str.Err()
	}
	if cerr := str.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = out.Drop()
		return nil, str.Stats(), err
	}
	return out, str.Stats(), nil
}

func fillRandom(t *testing.T, h *storage.HeapFile, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rel := frel.NewRelation(h.Schema)
	for i := 0; i < n; i++ {
		center := rng.Float64() * 1000
		width := rng.Float64() * 10
		rel.Append(frel.NewTuple(1, frel.Num(fuzzy.Tri(center-width, center, center+width))))
	}
	if err := h.AppendAll(rel); err != nil {
		t.Fatal(err)
	}
}

func TestSortSmall(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 3, 9, 1, 7} {
		if err := src.Append(frel.NewTuple(1, frel.Crisp(v))); err != nil {
			t.Fatal(err)
		}
	}
	out, st, err := sortToHeap(NewSorter(m, 4), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 5 || st.Runs != 0 || st.MergePasses != 0 || st.SpillBytes != 0 {
		t.Errorf("stats = %+v", st)
	}
	rel, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i, w := range want {
		if rel.Tuples[i].Values[0].Num.A != w {
			t.Errorf("tuple %d = %v, want %g", i, rel.Tuples[i], w)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := sortToHeap(NewSorter(m, 4), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumTuples() != 0 || st.Tuples != 0 {
		t.Errorf("empty sort produced %d tuples", out.NumTuples())
	}
}

func TestSortExternalMultiRun(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	fillRandom(t, src, n, 42)
	// Tiny memory: forces many runs and at least one merge pass.
	out, st, err := sortToHeap(NewSorter(m, 2), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 4 {
		t.Errorf("runs = %d, want several with a 2-page budget", st.Runs)
	}
	if st.MergePasses < 1 {
		t.Errorf("merge passes = %d, want >= 1", st.MergePasses)
	}
	if out.NumTuples() != n {
		t.Errorf("output tuples = %d, want %d", out.NumTuples(), n)
	}
	if pos, err := check(out, byX); err != nil || pos != -1 {
		t.Errorf("output not sorted at %d (err %v)", pos, err)
	}
}

func TestSortMultiPassMerge(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, src, 8000, 7)
	sorter := NewSorter(m, 2) // fan-in 2: log2(runs) passes
	out, st, err := sortToHeap(sorter, src, byX)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergePasses < 2 {
		t.Errorf("merge passes = %d, want >= 2 with fan-in 2", st.MergePasses)
	}
	if pos, err := check(out, byX); err != nil || pos != -1 {
		t.Errorf("not sorted at %d (err %v)", pos, err)
	}
}

// TestSortDefinition31Order verifies that the two-level comparison of
// Definition 3.1 is respected: equal begin points order by end points.
func TestSortDefinition31Order(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	ivals := []fuzzy.Trapezoid{
		fuzzy.Interval(30, 35),
		fuzzy.Interval(20, 35),
		fuzzy.Interval(20, 28),
		fuzzy.Interval(20, 30),
	}
	for _, iv := range ivals {
		if err := src.Append(frel.NewTuple(1, frel.Num(iv))); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := sortToHeap(NewSorter(m, 4), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := out.ReadAll()
	want := []fuzzy.Trapezoid{
		fuzzy.Interval(20, 28),
		fuzzy.Interval(20, 30),
		fuzzy.Interval(20, 35),
		fuzzy.Interval(30, 35),
	}
	for i, w := range want {
		if rel.Tuples[i].Values[0].Num != w {
			t.Errorf("tuple %d = %v, want %v", i, rel.Tuples[i].Values[0], w)
		}
	}
}

// TestSortStable: duplicates keep their input order (needed so degrees of
// identical join values are deterministic).
func TestSortStable(t *testing.T) {
	schema := frel.NewSchema("R",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "TAG", Kind: frel.KindString},
	)
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"a", "b", "c", "d"}
	for _, tag := range tags {
		if err := src.Append(frel.NewTuple(1, frel.Crisp(5), frel.Str(tag))); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := sortToHeap(NewSorter(m, 4), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := out.ReadAll()
	for i, tag := range tags {
		if rel.Tuples[i].Values[1].Str != tag {
			t.Errorf("tuple %d tag = %q, want %q", i, rel.Tuples[i].Values[1].Str, tag)
		}
	}
}

func TestSortPreservesDegreesAndValues(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := frel.NewRelation(xSchema())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		want.Append(frel.NewTuple(rng.Float64()*0.99+0.01, frel.Crisp(rng.Float64()*100)))
	}
	if err := src.AppendAll(want); err != nil {
		t.Fatal(err)
	}
	out, _, err := sortToHeap(NewSorter(m, 2), src, byX)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Errorf("sort changed the multiset of tuples")
	}
}

func TestOrderByUnknown(t *testing.T) {
	if _, err := OrderBy(xSchema(), "NOPE"); err == nil {
		t.Errorf("OrderBy(NOPE): want error")
	}
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sortToHeap(NewSorter(m, 4), src, Order{Attr: 1}); err == nil {
		t.Errorf("Sort on attribute 1 of a 1-attribute schema: want error")
	}
	if _, _, err := columnSort(frel.NewRelation(xSchema()), Order{Attr: -1}); err == nil {
		t.Errorf("SortColumnTids on attribute -1: want error")
	}
}

func TestSortColumnTidsInMemory(t *testing.T) {
	r := frel.NewRelation(xSchema())
	for _, v := range []float64{3, 1, 2} {
		r.Append(frel.NewTuple(1, frel.Crisp(v)))
	}
	sorted, comps, err := columnSort(r, byX)
	if err != nil {
		t.Fatal(err)
	}
	if comps <= 0 {
		t.Errorf("comparisons = %d", comps)
	}
	for i, w := range []float64{1, 2, 3} {
		if sorted[i].Values[0].Num.A != w {
			t.Errorf("tuple %d = %v", i, sorted[i])
		}
	}
}

// columnSort sorts rel's tuples in memory the way the sort cache does
// (SortColumnTids over the tuples held as columns) and returns them in
// the sorted order with the comparison count.
func columnSort(rel *frel.Relation, o Order) ([]frel.Tuple, int64, error) {
	cols := frel.NewColumns(rel.Schema, rel.Len())
	for _, t := range rel.Tuples {
		cols.AppendTuple(t)
	}
	tids := make([]int32, rel.Len())
	for i := range tids {
		tids[i] = int32(i)
	}
	n, err := SortColumnTids(rel.Schema, cols, tids, o)
	sorted := make([]frel.Tuple, len(tids))
	for i, p := range tids {
		sorted[i] = rel.Tuples[p]
	}
	return sorted, n, err
}

func TestCheckDetectsDisorder(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	h, err := m.CreateHeap("h", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 3, 2} {
		if err := h.Append(frel.NewTuple(1, frel.Crisp(v))); err != nil {
			t.Fatal(err)
		}
	}
	pos, err := check(h, byX)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 2 {
		t.Errorf("Check = %d, want 2", pos)
	}
}

// TestSortParallelRunGeneration checks that parallel run generation
// produces the identical sorted file and statistics as the serial sorter,
// at several worker counts, including counts above the pool-capacity cap.
func TestSortParallelRunGeneration(t *testing.T) {
	const n = 6000
	mkSrc := func(m *storage.Manager) *storage.HeapFile {
		src, err := m.CreateHeap("src", xSchema())
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, src, n, 99)
		return src
	}
	serialMgr := storage.NewManager(t.TempDir(), 16)
	serialOut, serialSt, err := sortToHeap(NewSorter(serialMgr, 2), mkSrc(serialMgr), byX)
	if err != nil {
		t.Fatal(err)
	}
	serialRel, err := serialOut.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 64} {
		m := storage.NewManager(t.TempDir(), 16)
		out, st, err := sortToHeap(NewSorter(m, 2).WithParallelism(workers), mkSrc(m), byX)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st != serialSt {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, st, serialSt)
		}
		rel, err := out.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(serialRel, 0) {
			t.Errorf("workers=%d: sorted output differs from serial", workers)
		}
	}
}

// TestWithParallelismClamps verifies the worker cap: never below 1, never
// at or above the buffer-pool capacity (each concurrent run writer pins a
// page transiently).
func TestWithParallelismClamps(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 4)
	s := NewSorter(m, 2)
	if s.WithParallelism(0); s.workers != 1 {
		t.Errorf("workers(0) = %d, want 1", s.workers)
	}
	if s.WithParallelism(100); s.workers != 3 {
		t.Errorf("workers(100) = %d, want pool capacity - 1 = 3", s.workers)
	}
	if s.WithParallelism(2); s.workers != 2 {
		t.Errorf("workers(2) = %d, want 2", s.workers)
	}
}

// TestSortKeepsIdenticalValuesAdjacent: values whose corners are equal as
// numbers but not bit for bit — crisp −0 and +0, Tri(−0,1,2) and
// Tri(+0,1,2) — are different values, and a sort leaves the identical ones
// adjacent, −0 first: SortColumnTids, and the streamed external sort at one
// and two workers, in memory and over several runs.
func TestSortKeepsIdenticalValuesAdjacent(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for name, vals := range map[string][]frel.Value{
		"crisp": {frel.Crisp(negZero), frel.Crisp(0), frel.Crisp(negZero)},
		"tri":   {frel.Num(fuzzy.Tri(negZero, 1, 2)), frel.Num(fuzzy.Tri(0, 1, 2)), frel.Num(fuzzy.Tri(negZero, 1, 2))},
	} {
		// groups checks that sorted holds n copies of vals[0], then the
		// rest, copies of vals[1].
		groups := func(label string, sorted []frel.Tuple, n int) {
			t.Helper()
			for i, tu := range sorted {
				want := vals[1]
				if i < n {
					want = vals[0]
				}
				if !tu.Values[0].Identical(want) {
					t.Fatalf("%s %s: position %d of %d holds %v, want %v", name, label, i, len(sorted), tu.Values[0], want)
				}
			}
		}
		rel := frel.NewRelation(xSchema())
		for _, v := range vals {
			rel.Append(frel.NewTuple(1, v))
		}
		sorted, _, err := columnSort(rel, byX)
		if err != nil {
			t.Fatal(err)
		}
		groups("SortColumnTids", sorted, 2)

		for _, copies := range []int{1, 600} {
			for _, workers := range []int{1, 2} {
				m := storage.NewManager(t.TempDir(), 16)
				src, err := m.CreateHeap("src", xSchema())
				if err != nil {
					t.Fatal(err)
				}
				in := frel.NewRelation(xSchema())
				for range copies {
					for _, v := range vals {
						in.Append(frel.NewTuple(1, v))
					}
				}
				if err := src.AppendAll(in); err != nil {
					t.Fatal(err)
				}
				str, err := streamHeap(NewSorter(m, 2).WithParallelism(workers), src, -1, byX)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("Stream of %d copies (%d runs), workers=%d", copies, str.Stats().Runs, workers)
				if copies > 1 && str.Stats().Runs == 0 {
					t.Fatalf("%s %s: want runs on disk", name, label)
				}
				var sorted []frel.Tuple
				for rec, ok := str.Next(); ok; rec, ok = str.Next() {
					tu, _, err := frel.DecodeTuple(xSchema(), rec)
					if err != nil {
						t.Fatal(err)
					}
					sorted = append(sorted, tu)
				}
				if err := str.Err(); err != nil {
					t.Fatal(err)
				}
				if err := str.Close(); err != nil {
					t.Fatal(err)
				}
				if len(sorted) != 3*copies {
					t.Fatalf("%s %s: %d records, want %d", name, label, len(sorted), 3*copies)
				}
				groups(label, sorted, 2*copies)
			}
		}
	}
}
