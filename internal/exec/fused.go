package exec

import (
	"repro/internal/frel"
	"repro/internal/kernel"
)

// FusedFilter is a fuzzy selection: it passes through the tuples of its
// source with degree min(t.D, d₁, d₂, ...) over the conjuncts compiled into
// Prog, dropping those whose degree is 0. The whole conjunction runs as one
// kernel.Program loop over each batch, with no per-tuple closure dispatch
// and counters flushed once per batch; a later conjunct is evaluated only
// on the tuples the earlier ones kept. The answer's WITH threshold is not
// applied here: the plan's push-threshold rule hands it to the sweeps
// above (join steps, anti-join, group-aggregate join) as their Floor, and
// core's finalizeAnswer applies it to the answer.
type FusedFilter struct {
	Src  Source
	Prog *kernel.Program

	// Stats receives the filter's work: the degree evaluations the kernel
	// performs and the tuples it evaluates (KernelTuples).
	Stats *OpStats
}

// NewFusedFilter builds a compiled filter over src counting into st.
func NewFusedFilter(src Source, prog *kernel.Program, st *OpStats) *FusedFilter {
	return &FusedFilter{Src: src, Prog: prog, Stats: st}
}

// Schema implements Source.
func (f *FusedFilter) Schema() *frel.Schema { return f.Src.Schema() }

// Open implements Source.
func (f *FusedFilter) Open() (BatchIterator, error) {
	in, err := f.Src.Open()
	if err != nil {
		return nil, err
	}
	return &fusedBatchIterator{f: f, in: in}, nil
}

type fusedBatchIterator struct {
	f    *FusedFilter
	in   BatchIterator
	degs []float64
	out  []frel.Tuple
}

func (it *fusedBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	f := it.f
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		if cap(it.degs) < len(b) {
			it.degs = make([]float64, len(b))
		}
		degs := it.degs[:len(b)]
		f.Stats.DegreeEvals.Add(f.Prog.RunBatch(b, degs))
		f.Stats.KernelTuples.Add(int64(len(b)))
		// Pass-through fast path: a batch the kernel neither drops from
		// nor re-grades is served as-is (no copy).
		copying := false
		for i, t := range b {
			d := degs[i]
			if !copying {
				if d == t.D && d > 0 {
					continue
				}
				copying = true
				it.out = append(it.out[:0], b[:i]...)
			}
			if d <= 0 {
				continue
			}
			t.D = d
			it.out = append(it.out, t)
		}
		if !copying {
			return b, true
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *fusedBatchIterator) Err() error { return it.in.Err() }
func (it *fusedBatchIterator) Close()     { it.in.Close() }
