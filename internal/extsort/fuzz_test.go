package extsort_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// fuzzNumbers are the values FuzzSortOrder draws X from: both zeros,
// crisp values, and supports shared by values with different cores, so
// that every tie-break of the order is exercised.
var fuzzNumbers = func() []fuzzy.Trapezoid {
	nz := math.Copysign(0, -1)
	return []fuzzy.Trapezoid{
		fuzzy.Crisp(nz), fuzzy.Crisp(0), fuzzy.Crisp(1), fuzzy.Crisp(2),
		{A: nz, B: 1, C: 1, D: 2}, {A: 0, B: 1, C: 1, D: 2},
		{A: 0, B: 1, C: 3, D: 4}, {A: 0, B: 2, C: 3, D: 4}, {A: 0, B: 1, C: 2, D: 4},
		{A: nz, B: nz, C: 0, D: 4}, {A: 0, B: 0, C: nz, D: 4},
		fuzzy.Interval(1, 2), {A: 1, B: 1.5, C: 1.5, D: 2},
	}
}()

// fuzzStrings are the values FuzzSortOrder draws NAME from.
var fuzzStrings = []string{"", "a", "ab", "b", "\x00", "a\x00", "B"}

// encodedRecords is a record source that is not a heap: it encodes each
// tuple into one reused buffer as it is read, the way the engine feeds a
// sort input that is not a base relation.
type encodedRecords struct {
	schema *frel.Schema
	tuples []frel.Tuple
	buf    []byte
	err    error
}

func (r *encodedRecords) NextRaw() ([]byte, bool) {
	if r.err != nil || len(r.tuples) == 0 {
		return nil, false
	}
	r.buf, r.err = frel.AppendTuple(r.buf[:0], r.schema, r.tuples[0])
	r.tuples = r.tuples[1:]
	return r.buf, r.err == nil
}

func (r *encodedRecords) Err() error { return r.err }

// FuzzSortOrder: every way the engine sorts a relation gives one
// permutation — the streamed external sort of a heap and of the same
// tuples from a record source that is not a heap, each at one and two
// run-generation workers, the in-memory SortColumnTids, and, on X, CREATE
// INDEX's stable sort of the tids — and it is the stable sort of the
// input by frel.Compare. The first bytes choose the sort attribute (NAME or X), a
// sort memory of 2 to 8 pages and how often the tuples repeat; every
// further pair of bytes is one tuple.
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 2, 0, 4, 0, 5, 0})
	f.Add([]byte{1, 0, 15, 6, 0, 7, 1, 8, 2, 9, 3, 10, 4, 0, 5})
	f.Add([]byte{0, 3, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{3, 6, 3, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0})
	// Enough tuples for several runs and a merge pass before the last.
	long := []byte{1, 0, 15}
	for i := range 100 {
		long = append(long, byte(i*7), byte(i*3))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		attr, memPages, reps := int(data[0]%2), 2+int(data[1]%7), 1+int(data[2]%16)
		schema := frel.NewSchema("R",
			frel.Attribute{Name: "NAME", Kind: frel.KindString},
			frel.Attribute{Name: "X", Kind: frel.KindNumber},
			frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		)
		rel := frel.NewRelation(schema)
		for range reps {
			for i := 3; i+1 < len(data); i += 2 {
				x := fuzzNumbers[int(data[i])%len(fuzzNumbers)]
				s := fuzzStrings[int(data[i+1])%len(fuzzStrings)]
				rel.Append(frel.NewTuple(1, frel.Str(s), frel.Num(x), frel.Crisp(float64(rel.Len()))))
			}
		}
		order := extsort.Order{Attr: attr}

		c := rel.Clone()
		slices.SortStableFunc(c.Tuples, func(a, b frel.Tuple) int {
			return frel.Compare(a.Values[attr], b.Values[attr])
		})
		want := extsort.IDs(c.Tuples)

		mem, _, err := extsort.ColumnSort(rel, order)
		if err != nil {
			t.Fatal(err)
		}
		if !extsort.SameIDs(extsort.IDs(mem), want) {
			t.Fatalf("SortColumnTids: %v, want %v", extsort.IDs(mem), want)
		}

		m, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: storage.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		cat := catalog.New(m)
		src, err := cat.CreateRelation("R", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			sorter := extsort.NewSorter(m, memPages).WithParallelism(workers)
			str, err := extsort.StreamHeap(sorter, src, -1, order)
			if err != nil {
				t.Fatal(err)
			}
			got := extsort.StreamIDs(t, str, schema)
			heapSt := str.Stats()
			if err := str.Close(); err != nil {
				t.Fatal(err)
			}
			if !extsort.SameIDs(got, want) {
				t.Fatalf("Stream, %d pages, workers=%d: %v, want %v", memPages, workers, got, want)
			}

			// The same tuples from a record source that is not a heap: the
			// same permutation, runs and comparisons.
			if str, err = sorter.Stream(schema, &encodedRecords{schema: schema, tuples: rel.Tuples}, -1, order); err != nil {
				t.Fatal(err)
			}
			got = extsort.StreamIDs(t, str, schema)
			recSt := str.Stats()
			if err := str.Close(); err != nil {
				t.Fatal(err)
			}
			if !extsort.SameIDs(got, want) {
				t.Fatalf("Stream of records, %d pages, workers=%d: %v, want %v", memPages, workers, got, want)
			}
			if recSt != heapSt {
				t.Fatalf("Stream of records, %d pages, workers=%d: stats %+v, the heap input's %+v", memPages, workers, recSt, heapSt)
			}
		}
		if live := m.LiveTemps(); live != 0 {
			t.Fatalf("%d temporary files left behind", live)
		}

		if schema.Attrs[attr].Kind != frel.KindNumber {
			return // order indexes are on numeric attributes only
		}
		ix, err := cat.CreateIndex("r_i", "R", schema.Attrs[attr].Name)
		if err != nil {
			t.Fatal(err)
		}
		tids, err := storage.ReadIndexEntries(ix.Heap())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(tids))
		for i, tid := range tids {
			got[i] = float64(tid)
		}
		if !extsort.SameIDs(got, want) {
			t.Fatalf("CREATE INDEX: %v, want %v", got, want)
		}
	})
}
