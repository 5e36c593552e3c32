package core

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/fsql"
)

// TestSortedStreamOpensOnceAndDropsItsRuns: a cold external sort of a
// base relation is a stream whose runs stay on disk until it is read. It
// serves the relation's stable sort with its support keys and its size,
// drops its runs once drained and closed, and refuses a second Open. A
// stream nobody opened (an evaluation that stopped early) is dropped by
// closeStreams.
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
	if _, err := extsort.SortRelation(want, extsort.Order{Attr: 0}); err != nil {
		t.Fatal(err)
	}
	sortR := func(total bool) exec.Source {
		t.Helper()
		src, err := e.source(fsql.TableRef{Name: "R"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := e.sortSource(src, "U", total)
		if err != nil {
			t.Fatal(err)
		}
		return sorted
	}

	sorted := sortR(false)
	if mgr.LiveTemps() == 0 {
		t.Fatal("a sort of R in 2 pages of memory wrote no run")
	}
	it, err := sorted.Open()
	if err != nil {
		t.Fatal(err)
	}
	keyed, ok := it.(exec.KeyedBatchIterator)
	if !ok {
		t.Fatalf("the stream's iterator %T serves no keys", it)
	}
	if n := it.(interface{ Remaining() int }).Remaining(); n != len(want.Tuples) {
		t.Errorf("Remaining = %d, want %d", n, len(want.Tuples))
	}
	pos := 0
	for b, ok := it.NextBatch(); ok; b, ok = it.NextBatch() {
		keys := keyed.Keys()
		if len(keys) != len(b) {
			t.Fatalf("a batch of %d tuples came with %d keys", len(b), len(keys))
		}
		for i, tu := range b {
			w := want.Tuples[pos]
			for j := range w.Values {
				if !tu.Values[j].Identical(w.Values[j]) || tu.D != w.D {
					t.Fatalf("position %d holds %v, the stable sort %v", pos, tu, w)
				}
			}
			if lo, hi := tu.Values[0].Num.Support(); keys[i].Lo != lo || keys[i].Hi != hi || keys[i].D != tu.D {
				t.Fatalf("position %d: key %+v for %v", pos, keys[i], tu)
			}
			pos++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if pos != len(want.Tuples) {
		t.Errorf("the stream served %d tuples, want %d", pos, len(want.Tuples))
	}
	if live := mgr.LiveTemps(); live != 0 {
		t.Errorf("%d temporaries live after the stream was drained and closed", live)
	}
	if _, err := sorted.Open(); err == nil {
		t.Error("a second Open of a sorted stream succeeded")
	}

	sortR(true) // a first request for the total order: streamed, never opened
	if mgr.LiveTemps() == 0 {
		t.Fatal("a sort of R in 2 pages of memory wrote no run")
	}
	e.closeStreams(0)
	if live := mgr.LiveTemps(); live != 0 || len(e.streams) != 0 {
		t.Errorf("closeStreams left %d temporaries and %d streams", live, len(e.streams))
	}
}
