package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// TestSortedStreamOpensOnceAndDropsItsRuns: a cold external sort of a
// base relation is a stream whose runs stay on disk until it is read. It
// serves the relation's stable sort and its size, drops its runs once
// drained and closed, and refuses a second Open. A stream nobody opened
// (an evaluation that stopped early) is dropped by closeStreams, with the
// sorted copy it would have written for the cache.
func TestSortedStreamOpensOnceAndDropsItsRuns(t *testing.T) {
	e := diskEnv(t, rand.New(rand.NewSource(5)), 800, 10)
	mgr := e.cat.Manager()
	h, err := e.cat.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sortStable(want, 0)
	sortR := func() exec.Source {
		t.Helper()
		src, err := e.source(fsql.TableRef{Name: "R"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := e.sortSource(src, "U")
		if err != nil {
			t.Fatal(err)
		}
		return sorted
	}

	sorted := sortR()
	if mgr.LiveTemps() == 0 {
		t.Fatal("a sort of R in 2 pages of memory wrote no run")
	}
	it, err := sorted.Open()
	if err != nil {
		t.Fatal(err)
	}
	if n := it.(interface{ Remaining() int }).Remaining(); n != len(want.Tuples) {
		t.Errorf("Remaining = %d, want %d", n, len(want.Tuples))
	}
	cols, err := takeColumns(it)
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if cols.Len() != len(want.Tuples) {
		t.Errorf("the stream served %d tuples, want %d", cols.Len(), len(want.Tuples))
	}
	for pos, w := range want.Tuples[:min(cols.Len(), len(want.Tuples))] {
		for j := range w.Values {
			if !cols.Value(pos, j).Identical(w.Values[j]) || cols.D[pos] != w.D {
				t.Fatalf("position %d holds %v, the stable sort %v", pos, cols.Value(pos, j), w)
			}
		}
	}
	if live := mgr.LiveTemps(); live != 0 {
		t.Errorf("%d temporaries live after the stream was drained and closed", live)
	}
	if _, err := sorted.Open(); err == nil {
		t.Error("a second Open of a sorted stream succeeded")
	}

	sortR() // the second request, admitted by the cache: streamed, never opened
	if mgr.LiveTemps() == 0 {
		t.Fatal("a sort of R in 2 pages of memory wrote no run")
	}
	e.closeStreams(0)
	if live := mgr.LiveTemps(); live != 0 || len(e.streams) != 0 {
		t.Errorf("closeStreams left %d temporaries and %d streams", live, len(e.streams))
	}
}

// TestSortCacheCopyIsTheSortedStream: the sorted copy the second request
// for an order writes as its consumer pulls holds, record for record and
// byte for byte, what a fresh external sort of the relation streams.
func TestSortCacheCopyIsTheSortedStream(t *testing.T) {
	e := diskEnv(t, rand.New(rand.NewSource(9)), 800, 10)
	h, err := e.cat.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		src, err := e.source(fsql.TableRef{Name: "R"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := e.sortSource(src, "U")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(sorted); err != nil {
			t.Fatal(err)
		}
	}
	ent := e.sortCache[sortKey{heap: h, attr: 0}]
	if ent == nil || ent.sorted == nil {
		t.Fatal("the second request cached no sorted copy")
	}
	hsc := h.Scan()
	defer hsc.Close()
	str, err := extsort.NewSorter(e.cat.Manager(), e.SortMemPages).Stream(h.Schema, hsc, h.Bytes(), extsort.Order{Attr: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer str.Close()
	if str.Stats().Runs == 0 {
		t.Fatal("a sort of R in 2 pages of memory wrote no run")
	}
	sc := ent.sorted.Scan()
	defer sc.Close()
	n := 0
	for {
		want, wok := str.Next()
		got, gok := sc.NextRaw()
		if wok != gok {
			t.Fatalf("record %d: the copy has one: %v, the stream: %v", n, gok, wok)
		}
		if !wok {
			break
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: the copy holds %x, the stream %x", n, got, want)
		}
		n++
	}
	if err := cmp.Or(str.Err(), sc.Err()); err != nil {
		t.Fatal(err)
	}
	if n != int(h.NumTuples()) {
		t.Errorf("%d records, want %d", n, h.NumTuples())
	}
}

// TestSortCacheCancelledCopyCachesNothing: a second request for an order
// whose statement is cancelled while the consumer pulls the sorted stream
// caches nothing, and the partial copy is dropped with the sort's runs.
func TestSortCacheCancelledCopyCachesNothing(t *testing.T) {
	e := diskEnv(t, rand.New(rand.NewSource(11)), 3*exec.BatchSize, 10)
	mgr := e.cat.Manager()
	sortR := func() exec.Source {
		t.Helper()
		src, err := e.source(fsql.TableRef{Name: "R"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := e.sortSource(src, "U")
		if err != nil {
			t.Fatal(err)
		}
		return sorted
	}
	if _, err := exec.Collect(sortR()); err != nil {
		t.Fatal(err)
	}
	before := mgr.LiveTemps()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.ctx = ctx
	// The stream itself, under the wrapper that observes the context at
	// open: its pull polls the context as it decodes.
	it, err := exec.Unwrap(sortR()).Open()
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := takeColumns(it); !errors.Is(err, context.Canceled) {
		t.Fatalf("the stream went on after the cancellation: %v", err)
	}
	it.Close()
	e.ctx = nil
	if n := sortedCopies(e); n != 0 {
		t.Errorf("a cancelled request cached %d sorted copies", n)
	}
	if live := mgr.LiveTemps(); live != before {
		t.Errorf("%d temporaries live, %d before the request", live, before)
	}
}

// failingSource serves the batches of a relation until after of them have
// been served, then calls fail: its error, when not nil, ends the input.
type failingSource struct {
	rel   *frel.Relation
	after int
	fail  func() error
}

func (s *failingSource) Schema() *frel.Schema { return s.rel.Schema }

func (s *failingSource) Open() (exec.BatchIterator, error) {
	it, err := exec.NewMemSource(s.rel).Open()
	return &failingIterator{BatchIterator: it, s: s}, err
}

type failingIterator struct {
	exec.BatchIterator
	s      *failingSource
	served int
	err    error
}

func (it *failingIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.err != nil {
		return nil, false
	}
	if it.served == it.s.after {
		if it.err = it.s.fail(); it.err != nil {
			return nil, false
		}
	}
	it.served++
	return it.BatchIterator.NextBatch()
}

func (it *failingIterator) Err() error { return cmp.Or(it.err, it.BatchIterator.Err()) }

// TestSortIntermediateFailureDropsItsRuns: when the input of a sort that
// is not a base relation fails after the sort has written runs, whether
// with an error of its own or because the statement's context was
// cancelled, the sort returns that error, drops every run it wrote and
// caches nothing, at one and two run-generation workers.
func TestSortIntermediateFailureDropsItsRuns(t *testing.T) {
	errInput := errors.New("the input failed")
	rel := randRelation("R", 6*exec.BatchSize, rand.New(rand.NewSource(3)), "X")
	for _, workers := range []int{1, 2} {
		for _, cancelled := range []bool{false, true} {
			fs := &tempCountFS{FS: storage.NewMemFS()}
			mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 16, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			e := NewEnv(catalog.New(mgr))
			e.SortMemPages, e.Parallelism = 2, workers
			ctx, cancel := context.WithCancel(context.Background())
			src, want := exec.Source(&failingSource{rel: rel, after: 3, fail: func() error { return errInput }}), errInput
			if cancelled {
				// The input's leaf observes the statement's context, as a
				// scan of a base relation does.
				src, want = exec.WithContext(ctx, &failingSource{rel: rel, after: 3, fail: func() error { cancel(); return nil }}), context.Canceled
			}
			e.ctx = ctx
			before := mgr.LiveTemps()
			_, err = e.sortSource(src, "X")
			e.ctx = nil
			cancel()
			if !errors.Is(err, want) {
				t.Errorf("workers=%d cancelled=%v: err = %v, want %v", workers, cancelled, err, want)
			}
			if fs.created.Load() == 0 {
				t.Errorf("workers=%d cancelled=%v: the sort wrote no run before the input failed", workers, cancelled)
			}
			if live := mgr.LiveTemps(); live != before {
				t.Errorf("workers=%d cancelled=%v: %d temporaries live, %d before the sort", workers, cancelled, live, before)
			}
			if len(e.sortCache) != 0 || len(e.streams) != 0 {
				t.Errorf("workers=%d cancelled=%v: %d cache entries and %d open streams after the failure", workers, cancelled, len(e.sortCache), len(e.streams))
			}
		}
	}
}

// TestSortIntermediateAllocs is the allocation gate of sorting an input
// that is not a base relation: sorting and draining 20 000 numeric tuples
// within the sort memory allocates at most 0.05 times per tuple. Each
// tuple is encoded into one reused buffer, and the sorted records are
// decoded straight into columns. Skipped under -race, which
// inflates allocation counts.
func TestSortIntermediateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 20000
	schema := frel.NewSchema("A",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
	)
	rng := rand.New(rand.NewSource(1))
	rel := frel.NewRelation(schema)
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		rel.Append(frel.NewTuple(1, frel.Num(fuzzy.Tri(c-1, c, c+1)), frel.Crisp(float64(i))))
	}
	e := NewMemEnv()
	e.SortMemPages, e.Parallelism = 512, 1
	src := exec.NewMemSource(rel)
	run := func() {
		sorted, err := e.sortSource(src, "X")
		if err != nil {
			t.Fatal(err)
		}
		it, err := sorted.Open()
		if err != nil {
			t.Fatal(err)
		}
		cols, err := takeColumns(it)
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
		e.closeStreams(0)
		if cols.Len() != n {
			t.Fatalf("%d rows, want %d", cols.Len(), n)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	if runs := e.Work.SortRuns.Load(); runs != 0 {
		t.Fatalf("the sort wrote %d runs, want none", runs)
	}
	if per := allocs / n; per > 0.05 {
		t.Errorf("%.0f allocations for %d tuples (%.4f per tuple), want <= 0.05", allocs, n, per)
	} else {
		t.Logf("%.0f allocations, %.4f per tuple", allocs, per)
	}
}

// takeColumns takes the rest of it as columns, the way a sweep takes a
// sorted input, and returns them with the iterator's error.
func takeColumns(it exec.BatchIterator) (*frel.Columns, error) {
	c, ok := it.(interface {
		Columns() (*frel.Columns, int, bool)
	})
	if !ok {
		return nil, fmt.Errorf("%T serves no columns", it)
	}
	cols, _, ok := c.Columns()
	if !ok {
		return nil, cmp.Or(it.Err(), fmt.Errorf("%T served no columns", it))
	}
	return cols, it.Err()
}

// sortStable sorts rel in place on attribute attr by the engine's order,
// the reference sort of these tests: a stable sort by frel.Compare.
func sortStable(rel *frel.Relation, attr int) {
	slices.SortStableFunc(rel.Tuples, func(a, b frel.Tuple) int { return frel.Compare(a.Values[attr], b.Values[attr]) })
}
