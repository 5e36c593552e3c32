package extsort

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// propSchema puts a STRING attribute before the numeric key, so reading
// the key of X steps over a variable-length value; ID numbers the input
// position of every tuple.
func propSchema() *frel.Schema {
	return frel.NewSchema("P",
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
	)
}

// propRelation draws n tie-heavy tuples: X takes one of five ≼ keys (five
// support intervals), with core corners that vary under the same key and
// zero corners of either sign; NAME takes one of five strings, the empty
// one included.
func propRelation(n int, seed int64) *frel.Relation {
	rng := rand.New(rand.NewSource(seed))
	supports := [][2]float64{{0, 4}, {0, 6}, {1, 3}, {2, 5}, {2, 7}}
	names := []string{"", "a", "ab", "b", "a longer name, so record sizes vary"}
	zero := func() float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) }
	r := frel.NewRelation(propSchema())
	for i := 0; i < n; i++ {
		s := supports[rng.Intn(len(supports))]
		x := fuzzy.Trapezoid{A: s[0], B: s[0] + float64(rng.Intn(2))*0.5, C: s[1] - float64(rng.Intn(2))*0.5, D: s[1]}
		if x.A == 0 {
			x.A = zero()
		}
		if x.B == 0 {
			x.B = zero()
		}
		r.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Str(names[rng.Intn(len(names))]), frel.Num(x), frel.Crisp(float64(i))))
	}
	return r
}

// stableIDs sorts a copy of tuples with sort.SliceStable under
// frel.Compare on o's attribute and returns the input positions (IDs) in sorted order: the
// oracle of every permutation check.
func stableIDs(tuples []frel.Tuple, o Order) []float64 {
	c := append([]frel.Tuple(nil), tuples...)
	sort.SliceStable(c, func(i, j int) bool {
		return frel.Compare(c[i].Values[o.Attr], c[j].Values[o.Attr]) < 0
	})
	return ids(c)
}

// positionSortCmp sorts the positions of tuples by (value under o,
// position) with slices.SortFunc, the algorithm of the sorter's runs, and
// returns the number of comparisons it makes.
func positionSortCmp(tuples []frel.Tuple, o Order) int64 {
	perm := make([]int, len(tuples))
	for i := range perm {
		perm[i] = i
	}
	var n int64
	slices.SortFunc(perm, func(i, j int) int {
		n++
		if c := frel.Compare(tuples[i].Values[o.Attr], tuples[j].Values[o.Attr]); c != 0 {
			return c
		}
		return i - j
	})
	return n
}

func ids(tuples []frel.Tuple) []float64 {
	out := make([]float64, len(tuples))
	for i, t := range tuples {
		out[i] = t.Values[2].Num.A
	}
	return out
}

func sameIDs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batches cuts tuples where run generation cuts its input: as soon as the
// encoded bytes of a batch reach the memory budget.
func batches(schema *frel.Schema, tuples []frel.Tuple, memPages int) [][]frel.Tuple {
	var out [][]frel.Tuple
	start, bytes := 0, 0
	for i, t := range tuples {
		if bytes += frel.EncodedSize(schema, t); bytes >= memPages*storage.PageSize {
			out = append(out, tuples[start:i+1])
			start, bytes = i+1, 0
		}
	}
	if start < len(tuples) {
		out = append(out, tuples[start:])
	}
	return out
}

// streamIDs drains a stream and returns the IDs of its records in order.
func streamIDs(t *testing.T, str *Stream, schema *frel.Schema) []float64 {
	t.Helper()
	var out []float64
	for {
		rec, ok := str.Next()
		if !ok {
			break
		}
		tu, _, err := frel.DecodeTuple(schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tu.Values[2].Num.A)
	}
	if err := str.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSortIsTheStableSort is the sort's property test: for every order
// (a numeric key behind a string attribute, a string key),
// memory size (an input that fits, one run on disk plus the batch in
// memory, a few runs plus the batch, more runs than the fan-in with one
// to three merge passes), worker count and snapshot bound, the streamed
// final merge returns exactly sort.SliceStable's permutation of the input, run generation writes each
// full batch as its stable sort and keeps the last one in memory, and
// the comparisons are those of sorting each batch by (key, position) with
// slices.SortFunc. The in-memory SortColumnTids returns the same
// permutation with that algorithm's comparison count over the whole
// input. The tuples are tie-heavy, so any instability shows.
func TestSortIsTheStableSort(t *testing.T) {
	const n = 2000
	rel := propRelation(n, 27)
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AppendAll(rel); err != nil {
		t.Fatal(err)
	}
	orders := map[string]Order{
		"X":    {Attr: 1},
		"NAME": {Attr: 0},
	}
	runsSeen := map[int]bool{}
	overFanIn := false
	for name, o := range orders {
		mem, memCmp, err := columnSort(rel, o)
		if err != nil {
			t.Fatal(err)
		}
		want := stableIDs(rel.Tuples, o)
		if got := ids(mem); !sameIDs(got, want) {
			t.Errorf("%s: SortColumnTids's permutation differs from sort.SliceStable's", name)
		}
		if wantCmp := positionSortCmp(rel.Tuples, o); memCmp != wantCmp {
			t.Errorf("%s: SortColumnTids made %d comparisons, the (key, position) sort %d", name, memCmp, wantCmp)
		}
		for _, memPages := range []int{3, 4, 8, 16, 64} {
			for _, workers := range []int{1, 2, 4} {
				for _, limit := range []int64{-1, n/2 + 7} {
					label := fmt.Sprintf("%s memPages=%d workers=%d limit=%d", name, memPages, workers, limit)
					input := rel.Tuples
					if limit >= 0 {
						input = input[:limit]
					}
					want := stableIDs(input, o)
					sorter := NewSorter(m, memPages).WithParallelism(workers)

					// Run generation alone: each full batch is written as
					// its stable sort, the last stays in memory sorted.
					var st Stats
					runs, last, err := sorter.makeRuns(rel.Schema, src.ScanAt(limit), src.Bytes(), o.Attr, &st)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					bs := batches(rel.Schema, input, memPages)
					if len(runs) != len(bs)-1 || st.Runs != len(runs) || len(last.ends) != len(bs[len(bs)-1]) {
						t.Fatalf("%s: %d runs and a last batch of %d, want %d and %d", label, len(runs), len(last.ends), len(bs)-1, len(bs[len(bs)-1]))
					}
					var batchCmp int64
					for i, b := range bs {
						batchCmp += positionSortCmp(b, o)
						var got []float64
						if i < len(runs) {
							r, err := runs[i].ReadAll()
							if err != nil {
								t.Fatal(err)
							}
							got = ids(r.Tuples)
						} else {
							for _, p := range last.perm {
								tu, _, err := frel.DecodeTuple(rel.Schema, last.record(p))
								if err != nil {
									t.Fatal(err)
								}
								got = append(got, tu.Values[2].Num.A)
							}
						}
						if !sameIDs(got, stableIDs(b, o)) {
							t.Errorf("%s: batch %d of %d is not sorted stably", label, i, len(bs))
						}
					}
					if st.Comparisons != batchCmp {
						t.Errorf("%s: run generation made %d comparisons, the (key, position) sort %d", label, st.Comparisons, batchCmp)
					}
					if err := dropAll(runs); err != nil {
						t.Fatal(err)
					}

					str, err := streamHeap(sorter, src, limit, o)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if str.Remaining() != int64(len(input)) {
						t.Errorf("%s: stream remaining %d, want %d", label, str.Remaining(), len(input))
					}
					got := streamIDs(t, str, rel.Schema)
					st = str.Stats()
					if err := str.Close(); err != nil {
						t.Fatal(err)
					}
					runsSeen[st.Runs] = true
					overFanIn = overFanIn || st.Runs+1 > memPages-1
					if !sameIDs(got, want) {
						t.Errorf("%s (%d runs, %d passes): streamed permutation differs from sort.SliceStable's", label, st.Runs, st.MergePasses)
					}
					if str.Remaining() != 0 {
						t.Errorf("%s: drained stream has %d remaining", label, str.Remaining())
					}
					if st.Runs == 0 && (st.SpillBytes != 0 || st.MergePasses != 0 || st.Comparisons != positionSortCmp(input, o)) {
						t.Errorf("%s: an input that fits the memory: %+v", label, st)
					}

				}
			}
		}
	}
	if !runsSeen[0] || !runsSeen[1] || !overFanIn {
		t.Errorf("run counts covered %v (more than the fan-in: %v), want 0, 1 and more than the fan-in", runsSeen, overFanIn)
	}
	if live := m.LiveTemps(); live != 0 {
		t.Errorf("%d temporary files left behind", live)
	}
}

// TestSortMalformedRecordIsAnError: a record too short for its sort key,
// or with a corrupt string length before it, fails the sort with an error
// (no panic) and leaves no temporary file behind, also when runs were
// already written before the bad record was reached.
func TestSortMalformedRecordIsAnError(t *testing.T) {
	schema := propSchema()
	good, err := frel.AppendTuple(nil, schema, frel.NewTuple(1, frel.Str("ab"), frel.Crisp(1), frel.Crisp(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rec  []byte
		o    Order
	}{
		{"truncated numeric key", good[:20], Order{Attr: 1}},
		{"truncated string key", good[:10], Order{Attr: 0}},
		{"degree only", good[:6], Order{Attr: 0}},
		{"corrupt string length", append(append([]byte(nil), good[:8]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), Order{Attr: 1}},
	} {
		m := storage.NewManager(t.TempDir(), 16)
		src, err := m.CreateHeap("src", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.AppendAll(propRelation(1000, 3)); err != nil {
			t.Fatal(err)
		}
		if err := src.AppendRaw(tc.rec); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := sortToHeap(NewSorter(m, 2).WithParallelism(workers), src, tc.o); err == nil {
				t.Errorf("%s, workers=%d: sort succeeded, want an error", tc.name, workers)
			}
			if live := m.LiveTemps(); live != 0 {
				t.Errorf("%s, workers=%d: %d temporary files left behind", tc.name, workers, live)
			}
			if pins := m.Pool().PinnedPages(); pins != 0 {
				t.Errorf("%s, workers=%d: %d pages left pinned", tc.name, workers, pins)
			}
		}
	}
}

// TestSortCorruptPageIsAnError: run generation over a heap whose first
// page has a record count past its records, a record length past the
// page, or a record length ending exactly at the page end fails the sort
// with an error (no panic), leaving no temporary file or pin behind.
func TestSortCorruptPageIsAnError(t *testing.T) {
	for name, mutate := range map[string]func(page []byte){
		"count":              func(p []byte) { binary.LittleEndian.PutUint16(p[0:2], 0xFFFF) },
		"length":             func(p []byte) { binary.LittleEndian.PutUint16(p[2:], 0xFFFF) },
		"length to page end": func(p []byte) { binary.LittleEndian.PutUint16(p[2:], storage.PageSize-4) },
	} {
		fs := storage.NewMemFS()
		m, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		src, err := m.CreateHeap("src", propSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := src.AppendAll(propRelation(1000, 3)); err != nil {
			t.Fatal(err)
		}
		// Checkpointed, the heap reopens from its entry, whose last page
		// is intact: the corrupt first page is only read by the sort.
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := fs.OpenFile("db/src.heap", os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, storage.PageSize)
		if _, err := f.ReadAt(page, 0); err != nil {
			t.Fatal(err)
		}
		mutate(page)
		if _, err := f.WriteAt(page, 0); err != nil {
			t.Fatal(err)
		}
		m2, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		src2, err := m2.OpenHeap("src", propSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := sortToHeap(NewSorter(m2, 2).WithParallelism(workers), src2, Order{Attr: 1}); err == nil {
				t.Errorf("%s, workers=%d: sort succeeded, want an error", name, workers)
			}
			if live := m2.LiveTemps(); live != 0 {
				t.Errorf("%s, workers=%d: %d temporary files left behind", name, workers, live)
			}
			if pins := m2.Pool().PinnedPages(); pins != 0 {
				t.Errorf("%s, workers=%d: %d pages left pinned", name, workers, pins)
			}
		}
	}
}

// TestSortDropsTemporariesOnFault injects a crash at every mutating I/O
// operation of a multi-pass sort (page writes of run and merge files,
// forced by a small buffer pool), once with the final merge drained into
// a file and once with it pulled record by record, where
// the faults that fire while the stream is read hit its run reads. Each
// time the sort must return the injected fault and, once the stream is
// closed, leave no temporary file it created undropped and no page
// pinned. A stream closed before it is drained drops its runs as well.
// The manager's bookkeeping, not the crashed disk, is what is checked.
func TestSortDropsTemporariesOnFault(t *testing.T) {
	rel := propRelation(1500, 5)
	order := Order{Attr: 1}
	setup := func(target int64) (*storage.Manager, *storage.FaultFS, *storage.HeapFile) {
		ffs := storage.NewFaultFS(storage.NewMemFS(), storage.FaultStop, target, 1)
		m, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 8, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		src, err := m.CreateHeap("src", rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
		return m, ffs, src
	}
	// stream pulls every record of a streamed sort, returning the error
	// that ended it and the number of records read.
	stream := func(s *Sorter, src *storage.HeapFile) (int, error) {
		str, err := streamHeap(s, src, -1, order)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, ok := str.Next(); ok; _, ok = str.Next() {
			n++
		}
		err = str.Err()
		if cerr := str.Close(); err == nil {
			err = cerr
		}
		return n, err
	}
	sorts := map[string]func(*Sorter, *storage.HeapFile) error{
		"sort": func(s *Sorter, src *storage.HeapFile) error {
			out, _, err := sortToHeap(s, src, order)
			if err == nil {
				err = out.Drop()
			}
			return err
		},
		"stream": func(s *Sorter, src *storage.HeapFile) error {
			_, err := stream(s, src)
			return err
		},
	}
	for _, workers := range []int{1, 2} {
		m, ffs, src := setup(0)
		before := ffs.Ops()
		str, err := streamHeap(NewSorter(m, 3).WithParallelism(workers), src, -1, order)
		if err != nil {
			t.Fatal(err)
		}
		if st := str.Stats(); st.Runs < 4 || st.MergePasses < 2 {
			t.Fatalf("runs %d, passes %d: want a multi-pass sort", st.Runs, st.MergePasses)
		}
		opened := ffs.Ops()
		for i := 0; i < 10; i++ {
			if _, ok := str.Next(); !ok {
				t.Fatalf("stream ended after %d records: %v", i, str.Err())
			}
		}
		if err := str.Close(); err != nil {
			t.Fatal(err)
		}
		if live, pins := m.LiveTemps(), m.Pool().PinnedPages(); live != 0 || pins != 0 {
			t.Errorf("workers=%d: a stream closed before it was drained left %d temporaries and %d pins", workers, live, pins)
		}
		if _, ok := str.Next(); ok {
			t.Errorf("workers=%d: a closed stream served a record", workers)
		}
		if opened == before {
			t.Fatal("the sort performed no mutating I/O to inject faults into")
		}
		m, ffs, src = setup(0)
		if str, err = streamHeap(NewSorter(m, 3).WithParallelism(workers), src, -1, order); err != nil {
			t.Fatal(err)
		}
		opened = ffs.Ops()
		if got := len(streamIDs(t, str, rel.Schema)); got != len(rel.Tuples) {
			t.Fatalf("clean stream: %d records, want %d", got, len(rel.Tuples))
		}
		if ffs.Ops() == opened {
			t.Fatal("reading the stream performed no mutating I/O to inject faults into")
		}
		if err := str.Close(); err != nil {
			t.Fatal(err)
		}
		for name, sort := range sorts {
			m, ffs, src := setup(0)
			before := ffs.Ops()
			if err := sort(NewSorter(m, 3).WithParallelism(workers), src); err != nil {
				t.Fatal(err)
			}
			after := ffs.Ops()
			for target := before + 1; target <= after; target++ {
				m, ffs, src := setup(target)
				if ffs.Crashed() {
					t.Fatalf("fault %d fired while loading the input", target)
				}
				err := sort(NewSorter(m, 3).WithParallelism(workers), src)
				if !errors.Is(err, storage.ErrInjectedFault) {
					t.Errorf("%s, workers=%d, fault at op %d: err = %v, want the injected fault", name, workers, target, err)
				}
				if live := m.LiveTemps(); live != 0 {
					t.Errorf("%s, workers=%d, fault at op %d: %d temporary files left behind", name, workers, target, live)
				}
				if pins := m.Pool().PinnedPages(); pins != 0 {
					t.Errorf("%s, workers=%d, fault at op %d: %d pages left pinned", name, workers, target, pins)
				}
			}
		}
	}
}

// allocSource is the input of the allocation gate and the benchmark: n
// tuples of two numeric attributes (72 bytes encoded), in a manager with
// a 64-page pool.
func allocSource(tb testing.TB, n int) (*storage.Manager, *storage.HeapFile) {
	tb.Helper()
	m := storage.NewManager(tb.TempDir(), 64)
	schema := frel.NewSchema("A",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
	)
	src, err := m.CreateHeap("src", schema)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel := frel.NewRelation(schema)
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		rel.Append(frel.NewTuple(1, frel.Num(fuzzy.Tri(c-1, c, c+1)), frel.Crisp(float64(i))))
	}
	if err := src.AppendAll(rel); err != nil {
		tb.Fatal(err)
	}
	return m, src
}

// TestSortAllocs is the sort's allocation gate: an external sort of
// 20 000 tuples in three runs on disk, the batch in memory and one merge
// pass allocates at most 0.05 times per tuple, whether the final merge is
// drained into a file or pulled record by record. Records
// are copied into reused arenas and merged from the run scanners' page
// copies, so what allocates is per run and per sort, never per tuple.
// Skipped under -race, which inflates allocation counts.
func TestSortAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 20000
	m, src := allocSource(t, n)
	sorter := NewSorter(m, 48)
	for name, sort := range map[string]func() (Stats, error){
		"sort": func() (Stats, error) {
			out, st, err := sortToHeap(sorter, src, byX)
			if err == nil {
				err = out.Drop()
			}
			return st, err
		},
		"stream": func() (Stats, error) {
			str, err := streamHeap(sorter, src, -1, byX)
			if err != nil {
				return Stats{}, err
			}
			for _, ok := str.Next(); ok; _, ok = str.Next() {
			}
			if err := str.Err(); err != nil {
				return Stats{}, err
			}
			return str.Stats(), str.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			var st Stats
			run := func() {
				s, err := sort()
				if err != nil {
					t.Fatal(err)
				}
				st = s
			}
			run()
			allocs := testing.AllocsPerRun(5, run)
			if st.Runs < 3 || st.MergePasses != 1 {
				t.Fatalf("runs %d, merge passes %d: want at least 3 runs and one merge pass", st.Runs, st.MergePasses)
			}
			if per := allocs / n; per > 0.05 {
				t.Errorf("%.0f allocations for %d tuples (%.4f per tuple), want <= 0.05", allocs, n, per)
			} else {
				t.Logf("%.0f allocations, %.4f per tuple (%d runs, %d merge pass)", allocs, per, st.Runs, st.MergePasses)
			}
		})
	}
}

// BenchmarkSortToHeap measures the external sort of 20 000 tuples in three
// runs on disk, the batch in memory and one merge pass drained into a
// file, at one and four run-generation workers.
func BenchmarkSortToHeap(b *testing.B) {
	const n = 20000
	m, src := allocSource(b, n)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sorter := NewSorter(m, 48).WithParallelism(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := sortToHeap(sorter, src, byX)
				if err != nil {
					b.Fatal(err)
				}
				if err := out.Drop(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
		})
	}
}
