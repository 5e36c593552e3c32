package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// batchDrain drains src through the batch interface, copying every batch
// out (the reuse contract says batches die at the next NextBatch call).
func batchDrain(t testing.TB, src Source) []frel.Tuple {
	t.Helper()
	it, err := OpenBatches(src)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []frel.Tuple
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		out = append(out, b...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// tupleDrain drains src strictly tuple-at-a-time.
func tupleDrain(t testing.TB, src Source) []frel.Tuple {
	t.Helper()
	it, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []frel.Tuple
	for {
		tup, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, tup)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameSequence requires the two drains to agree tuple for tuple, in
// order, values and degrees both.
func sameSequence(t *testing.T, name string, got, want []frel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: batch drain produced %d tuples, tuple drain %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].D != want[i].D {
			t.Fatalf("%s: tuple %d differs: batch %v (d=%g) vs tuple %v (d=%g)",
				name, i, got[i].Values, got[i].D, want[i].Values, want[i].D)
		}
	}
}

// sameCounters requires the two executions to have recorded identical
// work counters.
func sameCounters(t *testing.T, name string, batch, tuple *Counters) {
	t.Helper()
	if b, w := batch.Comparisons.Load(), tuple.Comparisons.Load(); b != w {
		t.Errorf("%s: Comparisons %d (batch) vs %d (tuple)", name, b, w)
	}
	if b, w := batch.DegreeEvals.Load(), tuple.DegreeEvals.Load(); b != w {
		t.Errorf("%s: DegreeEvals %d (batch) vs %d (tuple)", name, b, w)
	}
	if b, w := batch.TuplesOut.Load(), tuple.TuplesOut.Load(); b != w {
		t.Errorf("%s: TuplesOut %d (batch) vs %d (tuple)", name, b, w)
	}
}

// sameStats requires identical OpStats contents (the EXPLAIN ANALYZE
// contract: batching must not change any reported counter).
func sameStats(t *testing.T, name string, batch, tuple *OpStats) {
	t.Helper()
	b, w := batch.Snapshot(), tuple.Snapshot()
	if b.Comparisons != w.Comparisons || b.DegreeEvals != w.DegreeEvals {
		t.Errorf("%s: stats cmp/deg %d/%d (batch) vs %d/%d (tuple)",
			name, b.Comparisons, b.DegreeEvals, w.Comparisons, w.DegreeEvals)
	}
	if b.RngCount != w.RngCount || b.RngMin != w.RngMin || b.RngMax != w.RngMax ||
		b.RngAvg != w.RngAvg {
		t.Errorf("%s: stats Rng n=%d min=%d max=%d avg=%g (batch) vs n=%d min=%d max=%d avg=%g (tuple)",
			name, b.RngCount, b.RngMin, b.RngMax, b.RngAvg, w.RngCount, w.RngMin, w.RngMax, w.RngAvg)
	}
}

// TestBatchMergeJoinMatchesTuple cross-checks the batched merge-join
// (crisp-equality and band forms) against the tuple-at-a-time operator on
// random inputs: same output sequence, same counters, same stats.
func TestBatchMergeJoinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tols := []fuzzy.Trapezoid{fuzzy.Crisp(0), fuzzy.Tri(-3, 0, 3), fuzzy.Trap(-5, -2, 2, 5)}
	for trial := 0; trial < 15; trial++ {
		r := randomRel("R", 50+rng.Intn(80), 60, 6, rng)
		s := randomRel("S", 50+rng.Intn(80), 60, 6, rng)
		tol := tols[trial%len(tols)]
		build := func(c *Counters, st *OpStats) *MergeJoin {
			mj, err := NewBandMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
				"R.X", "S.X", tol, nil, c)
			if err != nil {
				t.Fatal(err)
			}
			mj.Stats = st
			return mj
		}
		var cb, ct Counters
		sb, st := NewOpStats("merge-join", ""), NewOpStats("merge-join", "")
		got := batchDrain(t, build(&cb, sb))
		want := tupleDrain(t, build(&ct, st))
		sameSequence(t, "merge-join", got, want)
		sameCounters(t, "merge-join", &cb, &ct)
		sameStats(t, "merge-join", sb, st)
	}
}

// TestBatchMergeJoinExtraPredicate covers the extra-conjunct arm (degree
// evaluations for the extra predicate are charged identically).
func TestBatchMergeJoinExtraPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRel("R", 90, 40, 4, rng)
	s := randomRel("S", 90, 40, 4, rng)
	extra := func(l, m frel.Tuple) float64 {
		if int(l.Values[0].Num.B)%2 == int(m.Values[0].Num.B)%2 {
			return 0.7
		}
		return 0
	}
	build := func(c *Counters, st *OpStats) *MergeJoin {
		mj, err := NewMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
			"R.X", "S.X", extra, c)
		if err != nil {
			t.Fatal(err)
		}
		mj.Stats = st
		return mj
	}
	var cb, ct Counters
	sb, st := NewOpStats("merge-join", ""), NewOpStats("merge-join", "")
	sameSequence(t, "merge-join extra", batchDrain(t, build(&cb, sb)), tupleDrain(t, build(&ct, st)))
	sameCounters(t, "merge-join extra", &cb, &ct)
	sameStats(t, "merge-join extra", sb, st)
}

// antiTerms builds the penalty of the anti-min parity test in both forms:
// the compiled conjuncts (an equality and a complemented comparison, the
// JALL shape) and the interpreted penalty 1 − min(µ(s), terms) over the
// same conjuncts, charging DegreeEvals per conjunct call like the compiled
// join-predicate closures do and stopping at the first zero.
func antiTerms(t testing.TB, c *Counters) (*kernel.PairProgram, JoinPred) {
	t.Helper()
	pp, err := kernel.CompilePair([]kernel.PairStep{
		{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
			Left: kernel.LeftColumn(1), Right: kernel.RightColumn(1)},
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt, Neg: true,
			Left: kernel.LeftColumn(0), Right: kernel.RightColumn(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	terms := []JoinPred{
		func(l, r frel.Tuple) float64 {
			c.DegreeEvals.Add(1)
			return frel.Degree(fuzzy.OpEq, l.Values[1], r.Values[1])
		},
		func(l, r frel.Tuple) float64 {
			c.DegreeEvals.Add(1)
			return 1 - frel.Degree(fuzzy.OpGt, l.Values[0], r.Values[0])
		},
	}
	penalty := func(l, r frel.Tuple) float64 {
		d := r.D
		for _, term := range terms {
			if g := term(l, r); g < d {
				d = g
				if d == 0 {
					break
				}
			}
		}
		return 1 - d
	}
	return pp, penalty
}

// TestKernelAntiMinMatchesTuple cross-checks the kernel anti-min (the
// batch form of MergeAntiMin with compiled terms) against the tuple
// iterator at every worker count: same output sequence, same counters,
// same stats. Without compiled terms the batch form is the tuple iterator
// behind the adapter.
func TestKernelAntiMinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, workers := range []int{0, 1, 2, 4} {
		for trial := 0; trial < 8; trial++ {
			r := randomRel("R", 60+rng.Intn(200), 50, 5, rng)
			s := randomRel("S", 60+rng.Intn(200), 50, 5, rng)
			for i := range s.Tuples {
				if rng.Intn(2) == 0 {
					s.Tuples[i].D = 0.05 + 0.95*rng.Float64()
				}
			}
			build := func(c *Counters, st *OpStats, kernelForm bool) *MergeAntiMin {
				pp, penalty := antiTerms(t, c)
				am, err := NewMergeAntiMin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
					"R.X", "S.X", penalty, c)
				if err != nil {
					t.Fatal(err)
				}
				am.Stats = st
				if kernelForm && workers > 0 {
					am.Terms, am.Workers = pp, workers
				}
				return am
			}
			var cb, ct Counters
			sb, st := NewOpStats("merge-anti-join", ""), NewOpStats("merge-anti-join", "")
			sameSequence(t, "anti-min", batchDrain(t, build(&cb, sb, true)), tupleDrain(t, build(&ct, st, false)))
			sameCounters(t, "anti-min", &cb, &ct)
			sameStats(t, "anti-min", sb, st)
			want := int64(0)
			if workers > 0 {
				want = int64(r.Len())
			}
			if kt := cb.KernelTuples.Load(); kt != want {
				t.Errorf("anti-min workers=%d: KernelTuples %d, want %d", workers, kt, want)
			}
		}
	}
}

// TestKernelGroupAggMatchesTuple cross-checks the kernel group-aggregate
// (the batch form of an equality-correlated GroupAggJoin with workers)
// against the tuple iterator for every aggregate and worker count; other
// correlation operators, and zero workers, are served by the tuple
// iterator behind the adapter.
func TestKernelGroupAggMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	aggs := []fuzzy.AggFunc{fuzzy.AggCount, fuzzy.AggSum, fuzzy.AggAvg, fuzzy.AggMin, fuzzy.AggMax}
	for trial := 0; trial < 6; trial++ {
		r, s := randomCorrelated(rng, 30+rng.Intn(200), 45+rng.Intn(200))
		for _, agg := range aggs {
			for _, op2 := range []fuzzy.Op{fuzzy.OpEq, fuzzy.OpGt} {
				for _, workers := range []int{0, 1, 2, 4} {
					build := func(c *Counters, st *OpStats, workers int) *GroupAggJoin {
						j, err := NewGroupAggJoin(
							totalSortedSource(t, r, "U"), sortedSource(t, s, "V"),
							"R.U", "S.V", op2, "S.Z", agg, "R.Y", fuzzy.OpGt, c)
						if err != nil {
							t.Fatal(err)
						}
						j.Stats, j.Workers = st, workers
						return j
					}
					var cb, ct Counters
					sb, st := NewOpStats("group-agg-join", ""), NewOpStats("group-agg-join", "")
					sameSequence(t, "group-agg", batchDrain(t, build(&cb, sb, workers)), tupleDrain(t, build(&ct, st, 0)))
					sameCounters(t, "group-agg", &cb, &ct)
					sameStats(t, "group-agg", sb, st)
					want := int64(0)
					if workers > 0 && op2 == fuzzy.OpEq {
						want = int64(r.Len())
					}
					if kt := cb.KernelTuples.Load(); kt != want {
						t.Errorf("group-agg op2=%v workers=%d: KernelTuples %d, want %d", op2, workers, kt, want)
					}
				}
			}
		}
	}
}

// TestBatchParallelMergeJoinMatchesTuple cross-checks the batched
// partitioned merge-join: the batch path partitions on the precomputed
// key columns, the tuple path on Support() calls — cut points and
// therefore results and stats must be identical.
func TestBatchParallelMergeJoinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, workers := range []int{2, 4} {
		r := randomRel("R", 300, 200, 4, rng)
		s := randomRel("S", 300, 200, 4, rng)
		build := func(c *Counters, st *OpStats) *ParallelMergeJoin {
			pj, err := NewParallelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
				"R.X", "S.X", fuzzy.Crisp(0), nil, c, workers)
			if err != nil {
				t.Fatal(err)
			}
			pj.Stats = st
			return pj
		}
		var cb, ct Counters
		sb, st := NewOpStats("merge-join", ""), NewOpStats("merge-join", "")
		got := batchDrain(t, build(&cb, sb))
		want := tupleDrain(t, build(&ct, st))
		// Partitions may emit in any worker-completion order in the tuple
		// path; both paths emit partitions in order, so sequences match.
		sameSequence(t, "parallel merge-join", got, want)
		sameStats(t, "parallel merge-join", sb, st)
	}
}

// TestBatchScanFilterProjectMatchesTuple covers the scan, filter,
// threshold and projection operators as one pipeline.
func TestBatchScanFilterProjectMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRel("R", 2500, 100, 5, rng) // > 2 batches
	for _, dedup := range []bool{false, true} {
		build := func() Source {
			f := NewFilter(NewMemSource(r), func(tp frel.Tuple) float64 {
				return fuzzy.Degree(fuzzy.OpGt, tp.Values[1].Num, fuzzy.Crisp(30))
			})
			th := NewThreshold(f, 0.25)
			p, err := NewProject(th, []string{"R.X"}, dedup)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		sameSequence(t, "scan-filter-project", batchDrain(t, build()), tupleDrain(t, build()))
	}
}

// TestBatchKeyedSourceServesKeys checks that a KeyedMemSource serves its
// key column batch-aligned, and that the keys match the tuples' actual
// supports.
func TestBatchKeyedSourceServesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 2600, 100, 5, rng)
	xi, _ := r.Schema.Resolve("X")
	keys := frel.SupportKeys(r.Tuples, xi)
	it, err := NewKeyedMemSource(r, keys).OpenBatch()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	kit, ok := it.(KeyedBatchIterator)
	if !ok {
		t.Fatal("keyed source iterator does not serve keys")
	}
	seen := 0
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		k := kit.Keys()
		if len(k) != len(b) {
			t.Fatalf("batch of %d tuples came with %d keys", len(b), len(k))
		}
		for i, tup := range b {
			lo, hi := tup.Values[xi].Num.Support()
			if k[i].Lo != lo || k[i].Hi != hi || k[i].D != tup.D {
				t.Fatalf("key %d = %+v, want lo=%g hi=%g d=%g", seen+i, k[i], lo, hi, tup.D)
			}
		}
		seen += len(b)
	}
	if seen != r.Len() {
		t.Fatalf("served %d tuples, want %d", seen, r.Len())
	}
}

// joinPipeline builds the scan -> filter -> merge-join pipeline the
// allocation tests and BenchmarkBatchVsTuple measure.
func joinPipeline(t testing.TB, r, s *frel.Relation) Source {
	t.Helper()
	pred := func(tp frel.Tuple) float64 { return 1 }
	mj, err := NewMergeJoin(NewFilter(NewMemSource(r), pred), NewFilter(NewMemSource(s), pred),
		"R.X", "S.X", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Project the answer attribute, the paper's answer-construction shape.
	proj, err := NewProject(mj, []string{"R.ID"}, false)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestBatchProjectedJoinMatchesTuple checks a plain projection over the
// batched merge join against the tuple engine's join-then-project
// sequence.
func TestBatchProjectedJoinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		r := sortedRel(t, randomRel("R", 300+rng.Intn(200), 800, 4, rng), "X")
		s := sortedRel(t, randomRel("S", 300+rng.Intn(200), 800, 4, rng), "X")
		got := batchDrain(t, joinPipeline(t, r, s))
		want := tupleDrain(t, joinPipeline(t, r, s))
		sameSequence(t, "projected join", got, want)
	}
}

// sortedRel returns a sorted clone (sorting once up front keeps the
// pipelines comparable and the allocation loop sort-free).
func sortedRel(t testing.TB, r *frel.Relation, attr string) *frel.Relation {
	t.Helper()
	c := r.Clone()
	if err := c.SortBy(attr); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchPipelineAllocs is the allocation-regression test for the
// batched scan -> filter -> merge-join pipeline: amortized allocations
// must stay at arena level (a handful per batch), far below one
// allocation per tuple. Skipped under -race, which inflates allocation
// counts.
func TestBatchPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(17))
	r := sortedRel(t, randomRel("R", 4000, 3000, 2, rng), "X")
	s := sortedRel(t, randomRel("S", 4000, 3000, 2, rng), "X")

	var rows int
	allocs := testing.AllocsPerRun(5, func() {
		it, err := OpenBatches(joinPipeline(t, r, s))
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			b, ok := it.NextBatch()
			if !ok {
				break
			}
			rows += len(b)
		}
		it.Close()
	})
	if rows == 0 {
		t.Fatal("pipeline produced no tuples")
	}
	perTuple := allocs / float64(rows)
	// One output arena + one output batch per BatchSize tuples plus
	// fixed setup; 0.1 allocs/tuple is an order of magnitude of headroom.
	if perTuple > 0.1 {
		t.Errorf("batched pipeline allocates %.3f allocs/tuple (%.0f allocs for %d tuples), want <= 0.1",
			perTuple, allocs, rows)
	}
}

// BenchmarkBatchVsTuple measures the same merge-join pipeline under both
// engines; the batch mode's acceptance bar is >= 1.5x throughput and
// >= 5x fewer allocations per operation.
func BenchmarkBatchVsTuple(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	r := sortedRel(b, randomRel("R", 20000, 15000, 2, rng), "X")
	s := sortedRel(b, randomRel("S", 20000, 15000, 2, rng), "X")

	b.Run("tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := joinPipeline(b, r, s).Open()
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				_, ok := it.Next()
				if !ok {
					break
				}
				n++
			}
			it.Close()
			if n == 0 {
				b.Fatal("no output")
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := OpenBatches(joinPipeline(b, r, s))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				bt, ok := it.NextBatch()
				if !ok {
					break
				}
				n += len(bt)
			}
			it.Close()
			if n == 0 {
				b.Fatal("no output")
			}
		}
	})
}

// tupleOnlySource hides a source's OpenBatch so OpenBatches must fall
// back to the re-batching adapter shim.
type tupleOnlySource struct{ src Source }

func (s tupleOnlySource) Schema() *frel.Schema    { return s.src.Schema() }
func (s tupleOnlySource) Open() (Iterator, error) { return s.src.Open() }

// TestBatchAdapterShim checks that a tuple-only source still serves
// batches through the adapter, identically to its tuple scan.
func TestBatchAdapterShim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRel("R", 2500, 1000, 2, rng)
	got := batchDrain(t, tupleOnlySource{src: NewMemSource(r)})
	want := tupleDrain(t, NewMemSource(r))
	sameSequence(t, "adapter shim", got, want)
}

// TestBatchHeapSource round-trips a relation through a heap file and the
// batched heap scan: mem -> heap file -> batches must preserve the tuple
// sequence.
func TestBatchHeapSource(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := randomRel("R", 3000, 1000, 2, rng)
	mgr := storage.NewManager(t.TempDir(), 8)
	h, err := mgr.CreateTemp(r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Drop()
	if err := h.AppendAll(r); err != nil {
		t.Fatal(err)
	}
	got := batchDrain(t, NewHeapSource(h))
	want := tupleDrain(t, NewMemSource(r))
	sameSequence(t, "heap batches", got, want)
}
