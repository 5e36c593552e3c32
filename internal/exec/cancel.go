package exec

import (
	"context"

	"repro/internal/frel"
)

// ctxCheckEvery is how many tuples a cancellable iterator passes through
// between context checks. Checking per tuple would put a synchronized load
// on the hot path; amortizing it keeps cancellation latency to a few
// thousand tuples while costing effectively nothing.
const ctxCheckEvery = 256

// WithContext wraps src so that every iterator it opens periodically
// observes ctx: once the context is cancelled, Next returns false and Err
// reports the context's error. Long-running operators (nested-loop joins,
// sorts, naive subquery evaluation) drive their inputs through these
// leaf iterators, so cancelling the context aborts a whole evaluation.
// A nil or never-cancellable context returns src unchanged.
func WithContext(ctx context.Context, src Source) Source {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	return &cancelSource{src: src, ctx: ctx}
}

type cancelSource struct {
	src Source
	ctx context.Context
}

func (s *cancelSource) Schema() *frel.Schema { return s.src.Schema() }

func (s *cancelSource) Open() (Iterator, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	it, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	return &cancelIterator{in: it, ctx: s.ctx}, nil
}

// OpenBatch implements BatchSource: the context is observed once per
// batch, which is coarser than ctxCheckEvery but still bounds
// cancellation latency to one batch of work.
func (s *cancelSource) OpenBatch() (BatchIterator, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	it, err := OpenBatches(s.src)
	if err != nil {
		return nil, err
	}
	return &cancelBatchIterator{in: it, ctx: s.ctx}, nil
}

type cancelBatchIterator struct {
	in    BatchIterator
	ctx   context.Context
	err   error
	found bool
}

func (it *cancelBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.found {
		return nil, false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		it.found = true
		return nil, false
	}
	return it.in.NextBatch()
}

func (it *cancelBatchIterator) Keys() []frel.SupportKey { return batchKeys(it.in) }
func (it *cancelBatchIterator) Remaining() int          { return batchesRemaining(it.in) }

func (it *cancelBatchIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.in.Err()
}

func (it *cancelBatchIterator) Close() { it.in.Close() }

type cancelIterator struct {
	in    Iterator
	ctx   context.Context
	n     int
	err   error
	found bool // cancellation observed
}

func (it *cancelIterator) Next() (frel.Tuple, bool) {
	if it.found {
		return frel.Tuple{}, false
	}
	if it.n%ctxCheckEvery == 0 {
		if err := it.ctx.Err(); err != nil {
			it.err = err
			it.found = true
			return frel.Tuple{}, false
		}
	}
	it.n++
	return it.in.Next()
}

func (it *cancelIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.in.Err()
}

func (it *cancelIterator) Close() { it.in.Close() }
