package exec

import (
	"context"
	"testing"

	"repro/internal/frel"
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
