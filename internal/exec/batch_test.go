package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// batchDrain drains src, copying every batch out (the reuse contract says
// batches die at the next NextBatch call).
func batchDrain(t testing.TB, src Source) []frel.Tuple {
	t.Helper()
	it, err := src.Open()
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

// sameSequence requires the two tuple sequences to agree tuple for tuple,
// in order, values and degrees both.
func sameSequence(t *testing.T, name string, got, want []frel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].D != want[i].D {
			t.Fatalf("%s: tuple %d differs: got %v (d=%g), want %v (d=%g)",
				name, i, got[i].Values, got[i].D, want[i].Values, want[i].D)
		}
	}
}

// sameWork requires identical work counters on the two nodes: scheduling
// must not change any of them, and a sweep counts exactly what the
// all-pairs reference counts.
func sameWork(t *testing.T, name string, got, want *OpStats) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if g.Comparisons != w.Comparisons || g.DegreeEvals != w.DegreeEvals {
		t.Errorf("%s: cmp/deg %d/%d, want %d/%d",
			name, g.Comparisons, g.DegreeEvals, w.Comparisons, w.DegreeEvals)
	}
	if g.RngCount != w.RngCount || g.RngMin != w.RngMin || g.RngMax != w.RngMax ||
		g.RngAvg != w.RngAvg {
		t.Errorf("%s: Rng n=%d min=%d max=%d avg=%g, want n=%d min=%d max=%d avg=%g",
			name, g.RngCount, g.RngMin, g.RngMax, g.RngAvg, w.RngCount, w.RngMin, w.RngMax, w.RngAvg)
	}
}

// refPred and refJoinPred are the tests' reference conditions: the degree
// of a condition on one tuple or on a pair, written out from its
// definition instead of compiled into a kernel program.
type (
	refPred     func(frel.Tuple) float64
	refJoinPred func(l, r frel.Tuple) float64
)

// antiTerms builds the penalty of the anti-min test in both forms: the
// compiled conjuncts (an equality and a complemented comparison, the JALL
// shape) and the closure 1 − min(µ(s), terms) over the same conjuncts,
// stopping at the first zero like the program does.
func antiTerms(t testing.TB) (*kernel.Program, refJoinPred) {
	t.Helper()
	pp := program(t,
		kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
			Left: kernel.Column(1), Right: kernel.RightColumn(1)},
		kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpGt, Neg: true,
			Left: kernel.Column(0), Right: kernel.RightColumn(0)})
	terms := []refJoinPred{
		func(l, r frel.Tuple) float64 {
			return frel.Degree(fuzzy.OpEq, l.Values[1], r.Values[1])
		},
		func(l, r frel.Tuple) float64 {
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

// bruteAntiMin is the all-pairs reference of MergeAntiMin over sorted
// inputs under a floor: every outer tuple takes the minimum penalty over
// all inner tuples whose X supports intersect its own (over all of them
// for the whole-inner window, ranged false), stopping at zero or below
// the floor, and is kept when that minimum is positive and at least the
// floor. It records the work a sweep must report: one comparison and
// degree evaluation per candidate pair examined and the Rng(r) length of
// every outer tuple, except that an outer tuple whose own degree is below
// the floor is neither compared nor observed.
func bruteAntiMin(r, s *frel.Relation, penalty refJoinPred, floor float64, ranged bool, st *OpStats) []frel.Tuple {
	var out []frel.Tuple
	for _, l := range r.Tuples {
		d := l.D
		if d < floor {
			continue
		}
		var rng int64
		for _, m := range s.Tuples {
			if ranged && !l.Values[1].Num.Intersects(m.Values[1].Num) {
				continue
			}
			rng++
			st.Comparisons.Add(1)
			st.DegreeEvals.Add(1)
			if g := penalty(l, m); g < d {
				d = g
				if d == 0 || d < floor {
					break
				}
			}
		}
		st.ObserveRng(rng)
		if d > 0 && d >= floor {
			l.D = d
			out = append(out, l)
		}
	}
	return out
}

// TestKernelAntiMinMatchesTuple checks the merge anti-min against the
// all-pairs reference at every worker count: same output sequence and the
// same work.
func TestKernelAntiMinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		r := sortedRel(t, randomRel("R", 60+rng.Intn(200), 50, 5, rng), "X")
		s := sortedRel(t, randomRel("S", 60+rng.Intn(200), 50, 5, rng), "X")
		for i := range s.Tuples {
			if rng.Intn(2) == 0 {
				s.Tuples[i].D = 0.05 + 0.95*rng.Float64()
			}
		}
		pp, penalty := antiTerms(t)
		full := bruteAntiMin(r, s, penalty, 0, true, NewOpStats("merge-anti-join", ""))
		for _, floor := range []float64{0, 0.5} {
			sw := NewOpStats("merge-anti-join", "")
			want := bruteAntiMin(r, s, penalty, floor, true, sw)
			sameSequence(t, "reference", want, thresholded(full, floor))
			for _, workers := range []int{0, 1, 2, 4, 8} {
				sg := NewOpStats("merge-anti-join", "")
				am, err := NewMergeAntiMin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", pp, sg)
				if err != nil {
					t.Fatal(err)
				}
				am.Workers, am.Floor = workers, floor
				name := fmt.Sprintf("anti-min floor %g workers %d", floor, workers)
				sameSequence(t, name, batchDrain(t, am), want)
				sameWork(t, name, sg, sw)
				if kt := sg.KernelTuples.Load(); kt != int64(r.Len()) {
					t.Errorf("%s: KernelTuples %d, want %d", name, kt, r.Len())
				}
			}
		}
	}
}

// TestKernelGroupAggMatchesTuple checks the group-aggregate join against
// the nested semantics (bruteJA) for every aggregate, for the equality
// sweep and for the whole-inner window of another correlation operator:
// same output sequence, bit-identical degrees, and
// the work groupAggWork predicts, at every worker count. The floor leg
// must return bruteJA's answer thresholded at the floor.
func TestKernelGroupAggMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	aggs := []fuzzy.AggFunc{fuzzy.AggCount, fuzzy.AggSum, fuzzy.AggAvg, fuzzy.AggMin, fuzzy.AggMax}
	for trial := 0; trial < 6; trial++ {
		r, s := randomCorrelated(rng, 30+rng.Intn(200), 45+rng.Intn(200))
		r = sortedSource(t, r, "U").(*MemSource).Rel
		s = sortedRel(t, s, "V")
		for _, agg := range aggs {
			for _, op2 := range []fuzzy.Op{fuzzy.OpEq, fuzzy.OpGt} {
				full := bruteJA(r, s, agg, fuzzy.OpGt, op2).Tuples
				for _, floor := range []float64{0, 0.5} {
					want := thresholded(full, floor)
					sw := NewOpStats("group-agg-join", "")
					groupAggWork(r, s, agg, op2, floor, sw)
					for _, workers := range []int{0, 1, 2, 4, 8} {
						st := NewOpStats("group-agg-join", "")
						j, err := NewGroupAggJoin(NewMemSource(r), NewMemSource(s),
							"R.U", "S.V", op2, "S.Z", agg, "R.Y", fuzzy.OpGt, st)
						if err != nil {
							t.Fatal(err)
						}
						j.Workers, j.Floor = workers, floor
						name := fmt.Sprintf("group-agg %v op2 %v floor %g workers %d", agg, op2, floor, workers)
						sameSequence(t, name, batchDrain(t, j), want)
						sameWork(t, name, st, sw)
						if kt := st.KernelTuples.Load(); kt != int64(r.Len()) {
							t.Errorf("%s: KernelTuples %d, want %d", name, kt, r.Len())
						}
					}
				}
			}
		}
	}
}

// groupAggWork predicts the work of GroupAggJoin over r (its groups are
// the runs of identical U) and s under a floor: a group with a tuple the
// floor keeps is built once — one comparison and degree evaluation per
// inner tuple it examines (those whose V support meets U's for the
// equality sweep, all of them for the whole-inner window), which is its Rng
// observation — and every kept tuple of a group whose aggregate is not
// NULL costs one more degree evaluation. A group the floor empties costs
// nothing.
func groupAggWork(r, s *frel.Relation, agg fuzzy.AggFunc, op2 fuzzy.Op, floor float64, st *OpStats) {
	for lo := 0; lo < r.Len(); {
		u := r.Tuples[lo].Values[0]
		hi, kept := lo, int64(0)
		for ; hi < r.Len() && r.Tuples[hi].Values[0].Identical(u); hi++ {
			if r.Tuples[hi].D >= floor {
				kept++
			}
		}
		if kept > 0 {
			var n int64
			empty := true
			for _, m := range s.Tuples {
				v := m.Values[0].Num
				if op2 == fuzzy.OpEq && !v.Intersects(u.Num) {
					continue
				}
				n++
				if min(m.D, fuzzy.Degree(op2, v, u.Num)) > 0 {
					empty = false
				}
			}
			st.Comparisons.Add(n)
			st.DegreeEvals.Add(n)
			st.ObserveRng(n)
			if !empty || agg == fuzzy.AggCount {
				st.DegreeEvals.Add(kept)
			}
		}
		lo = hi
	}
}

// TestBatchScanFilterProjectMatchesTuple checks the scan, filter and
// projection operators as one pipeline, over several batches, against a
// loop that applies their definitions one tuple at a time: a selected
// tuple's degree is min(D, pred), a zero degree drops it, and duplicate
// elimination keeps the first row of each value at the maximum degree.
func TestBatchScanFilterProjectMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRel("R", 2500, 100, 5, rng) // > 2 batches
	for i := range r.Tuples {
		if i%3 == 0 { // duplicates for the projection to merge
			r.Tuples[i].Values[1] = frel.Crisp(float64(20 + i%40))
		}
	}
	pred := func(tp frel.Tuple) float64 {
		return fuzzy.Degree(fuzzy.OpGt, tp.Values[1].Num, fuzzy.Crisp(30))
	}
	prog := program(t, kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
		Left: kernel.Column(1), Right: kernel.Constant(frel.Crisp(30))})
	p, err := NewProject(NewFusedFilter(NewMemSource(r), prog, NewOpStats("filter", "")), []string{"R.X"})
	if err != nil {
		t.Fatal(err)
	}
	var want []frel.Tuple
	first := map[string]int{}
	for _, tp := range r.Tuples {
		d := fuzzy.Min(tp.D, pred(tp))
		if d <= 0 {
			continue
		}
		row := frel.Tuple{Values: tp.Values[1:2], D: d}
		if i, ok := first[row.Key()]; ok {
			if d > want[i].D {
				want[i].D = d
			}
			continue
		}
		first[row.Key()] = len(want)
		want = append(want, row)
	}
	if len(want) == len(r.Tuples) {
		t.Fatal("no duplicates to eliminate")
	}
	sameSequence(t, "scan-filter-project", batchDrain(t, p), want)
}

// joinPipeline builds the scan -> filter -> merge-join pipeline the
// allocation test measures.
func joinPipeline(t testing.TB, r, s *frel.Relation) Source {
	t.Helper()
	// ID >= 0 holds to degree 1 for every tuple: the filter evaluates each
	// one and drops none.
	prog := program(t, kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpGe,
		Left: kernel.Column(0), Right: kernel.Constant(frel.Crisp(0))})
	st := NewOpStats("filter", "")
	return mergeJoin(t, NewFusedFilter(NewMemSource(r), prog, st), NewFusedFilter(NewMemSource(s), prog, st),
		"R.X", "S.X", fuzzy.Crisp(0), nil)
}

// TestBatchProjectedJoinMatchesTuple checks the projection of the answer
// attribute, the paper's answer-construction shape, over the merge join
// of filtered scans against the all-pairs reference join, projected one
// pair at a time and deduplicated by the oracle's Relation.DedupMax.
func TestBatchProjectedJoinMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		r := sortedRel(t, randomRel("R", 300+rng.Intn(200), 800, 4, rng), "X")
		s := sortedRel(t, randomRel("S", 300+rng.Intn(200), 800, 4, rng), "X")
		want := frel.NewRelation(nil)
		for _, pair := range bruteMergeJoin(r, s, fuzzy.Crisp(0), nil, NewOpStats("merge-join", "")) {
			want.Append(frel.Tuple{Values: pair.Values[:1], D: pair.D})
		}
		if want.DedupMax(); want.Len() == 0 {
			t.Fatal("empty join")
		}
		proj, err := NewProject(joinPipeline(t, r, s), []string{"R.ID"})
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, "projected join", batchDrain(t, proj), want.Tuples)
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
		it, err := joinPipeline(t, r, s).Open()
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
	sameSequence(t, "heap batches", batchDrain(t, NewHeapSource(h)), r.Tuples)
}

// TestHeapScanAllocs is the allocation gate of the heap scan every base
// relation is read through: draining a HeapSource of at least 10 pages,
// live or bounded to a snapshot prefix, costs at most 0.01 allocations a
// tuple (one value arena a batch, not one value slice a tuple), and the
// arena of a scan shorter than a batch is sized to the scan (an 8-tuple
// scan allocates nowhere near a full batch's values). Skipped under
// -race, which inflates allocation counts.
func TestHeapScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	mgr, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string, n int) *storage.HeapFile {
		r := randomRel(name, n, 1000, 2, rand.New(rand.NewSource(int64(n))))
		h, err := mgr.CreateHeap(name, r.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(r); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := load("r", 3000)
	if h.NumPages() < 10 {
		t.Fatalf("heap of %d pages, want at least 10", h.NumPages())
	}
	drain := func(src Source) int {
		it, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		n := 0
		for b, ok := it.NextBatch(); ok; b, ok = it.NextBatch() {
			n += len(b)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, src := range []*HeapSource{NewHeapSource(h), NewHeapSourceAt(h, 2500)} {
		var rows int
		allocs := testing.AllocsPerRun(5, func() { rows = drain(src) })
		if per := allocs / float64(rows); per > 0.01 {
			t.Errorf("limit %d: %.0f allocations for %d tuples (%.4f per tuple), want <= 0.01", src.Limit, allocs, rows, per)
		} else {
			t.Logf("limit %d: %.0f allocations for %d tuples (%.4f per tuple)", src.Limit, allocs, rows, per)
		}
	}

	// A full batch of values is 1024 tuples × 2 values × 56 bytes, about
	// 115 KB; the scan's fixed buffers (page copy, batch slice) are about
	// 9 KB.
	small := NewHeapSource(load("small", 8))
	drain(small)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if rows := drain(small); rows != 8 {
		t.Fatalf("small scan returned %d tuples, want 8", rows)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 32<<10 {
		t.Errorf("an 8-tuple scan allocated %d bytes, want its arena sized to 8 tuples (under 32 KB in all)", bytes)
	} else {
		t.Logf("an 8-tuple scan allocated %d bytes", bytes)
	}
}
