package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

func bigRel(n int) *frel.Relation {
	r := frel.NewRelation(frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber}))
	for i := 0; i < n; i++ {
		r.Append(frel.NewTuple(1, frel.Crisp(float64(i))))
	}
	return r
}

func TestWithContextPassthrough(t *testing.T) {
	src := NewMemSource(bigRel(3))
	if got := WithContext(nil, src); got != Source(src) {
		t.Errorf("nil context should return the source unchanged")
	}
	if got := WithContext(context.Background(), src); got != Source(src) {
		t.Errorf("non-cancellable context should return the source unchanged")
	}
}

func TestWithContextCancelledOpen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := WithContext(ctx, NewMemSource(bigRel(3)))
	if _, err := src.Open(); err != context.Canceled {
		t.Errorf("Open under cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestWithContextCancelMidScan(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, NewMemSource(bigRel(n)))
	it, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	read := 0
	for i := 0; i < 2; i++ {
		b, ok := it.NextBatch()
		if !ok {
			t.Fatal("scan ended prematurely")
		}
		read += len(b)
	}
	cancel()
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		read += len(b)
	}
	if it.Err() != context.Canceled {
		t.Errorf("Err = %v, want context.Canceled", it.Err())
	}
	if read >= n {
		t.Errorf("scan read all %d tuples despite cancellation", read)
	}
}

// countdownCtx is a context whose Err turns to context.Canceled after its
// first k calls.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepObservesCancellation cancels a running sweep: the whole-window
// join and the range join over heap scans, at 1 and 4 workers, with a
// context that turns cancelled after k polls. Open must return
// context.Canceled and leave no goroutine running and no page pinned. The
// inputs are four clusters of equal crisp values, so the range join cuts
// into four morsels of 90 000 comparisons each, enough for a poll apiece.
func TestSweepObservesCancellation(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 8)
	heap := func(name string) Source {
		h, err := m.CreateHeap(name, frel.NewSchema(name, frel.Attribute{Name: "X", Kind: frel.KindNumber}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1200; i++ {
			if err := h.Append(frel.NewTuple(1, frel.Crisp(float64(1000*(i/300))))); err != nil {
				t.Fatal(err)
			}
		}
		return NewHeapSource(h)
	}
	r, s := heap("R"), heap("S")
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		for _, attrs := range [][2]string{{"", ""}, {"R.X", "S.X"}} {
			for _, k := range []int64{0, 2} {
				kj, err := NewKernelMergeJoin(r, s, attrs[0], attrs[1], fuzzy.Crisp(0), nil, NewOpStats("merge-join", ""), workers)
				if err != nil {
					t.Fatal(err)
				}
				if err := kj.EmitColumns([]int{0}, FoldOuter); err != nil {
					t.Fatal(err)
				}
				kj.Ctx = newCountdownCtx(k)
				if _, err := kj.Open(); !errors.Is(err, context.Canceled) {
					t.Errorf("workers %d attrs %q k %d: Open returned %v, want context.Canceled", workers, attrs, k, err)
				}
				if n := m.Pool().PinnedPages(); n != 0 {
					t.Errorf("workers %d attrs %q k %d: %d pages pinned", workers, attrs, k, n)
				}
			}
		}
	}
	// A worker may still be returning from wg.Done when Open returns.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before the sweeps, %d after", before, after)
	}
}
