package exec

import (
	"context"

	"repro/internal/frel"
)

// WithContext wraps src so that every iterator it opens observes ctx
// before each batch: once the context is cancelled, NextBatch returns
// false and Err reports the context's error. Long-running operators
// (sorts, naive subquery evaluation) drive their inputs through these leaf
// iterators, so cancelling the context aborts a whole evaluation; the
// sweeps poll the context themselves once they hold their inputs (see
// batchLocals.poll). A nil or never-cancellable context returns src
// unchanged.
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

// Open implements Source: the context is observed at open and once per
// batch, which bounds cancellation latency to one batch of work.
func (s *cancelSource) Open() (BatchIterator, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	it, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	return &cancelBatchIterator{in: it, ctx: s.ctx}, nil
}

type cancelBatchIterator struct {
	in  BatchIterator
	ctx context.Context
	err error // the context's error, once observed
}

func (it *cancelBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.err == nil {
		it.err = it.ctx.Err()
	}
	if it.err != nil {
		return nil, false
	}
	return it.in.NextBatch()
}

// Columns implements columnsBatchIterator: once the context is cancelled
// it serves nothing, and Err reports the context's error.
func (it *cancelBatchIterator) Columns() (*frel.Columns, int, bool) {
	if it.err == nil {
		it.err = it.ctx.Err()
	}
	if it.err != nil {
		return nil, -1, false
	}
	return columnsOf(it.in)
}

func (it *cancelBatchIterator) Remaining() int { return batchesRemaining(it.in) }

func (it *cancelBatchIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.in.Err()
}

func (it *cancelBatchIterator) Close() { it.in.Close() }
