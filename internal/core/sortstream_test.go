package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
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
// closeStreams, with the sorted copy it would have written for the cache.
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
	ent, ok := e.sortHeap[sortKey{heap: h, attr: 0}]
	if !ok {
		t.Fatal("the second request cached no sorted copy")
	}
	str, err := extsort.NewSorter(e.cat.Manager(), e.SortMemPages).Stream(h, -1, extsort.Order{Attr: 0})
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
	restore := e.withContext(ctx)
	it, err := sortR().Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.NextBatch(); !ok {
		t.Fatalf("no first batch: %v", it.Err())
	}
	cancel()
	if _, ok := it.NextBatch(); ok || !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("the stream went on after the cancellation: %v", it.Err())
	}
	it.Close()
	restore()
	if len(e.sortHeap) != 0 {
		t.Errorf("a cancelled request cached %d sorted copies", len(e.sortHeap))
	}
	if live := mgr.LiveTemps(); live != before {
		t.Errorf("%d temporaries live, %d before the request", live, before)
	}
}
