package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// vagueRel mixes the narrow values of randomRel with a fraction of very
// wide supports (the paper's closing caveat: temporal-database-sized
// intervals), which keep dangling tuples inside Rng(r) and force the
// partitioner to widen its cuts past long runs of overlapping intervals.
func vagueRel(name string, n int, span float64, vagueEvery int, rng *rand.Rand) *frel.Relation {
	r := randomRel(name, n, span, 4, rng)
	if vagueEvery <= 0 {
		return r
	}
	xi, _ := r.Schema.Resolve("X")
	for i := range r.Tuples {
		if i%vagueEvery == 0 {
			c := r.Tuples[i].Values[xi].Num.Centroid()
			w := span * (0.05 + rng.Float64()*0.3)
			r.Tuples[i].Values[xi] = frel.Num(fuzzy.Tri(c-w, c, c+w))
		}
	}
	return r
}

// TestParallelMergeJoinEquivalence is the randomized property test: over
// workloads with narrow, wide-interval, and dangling tuples, the
// merge-join must return the all-pairs answer, and the identical sequence
// — same tuples, same emission order, bit-identical degrees — with the
// reference's work at every worker count.
func TestParallelMergeJoinEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		span       float64
		vagueEvery int // 0 = narrow values only
	}{
		{"narrow", 300, 2000, 0},
		{"clustered", 250, 200, 0}, // heavy overlap, few partitions
		{"vague10", 300, 2000, 10},
		{"vague3", 200, 1000, 3}, // wide intervals dominate
		{"tiny", 7, 50, 2},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := vagueRel("R", tc.n, tc.span, tc.vagueEvery, rng)
				s := vagueRel("S", tc.n+rng.Intn(100), tc.span, tc.vagueEvery, rng)
				workerCountEquivalence(t, r, s, fuzzy.Crisp(0), nil, nil)
			})
		}
	}
}

// workerCountEquivalence joins r and s at 1, 2, 4 and 8 workers: every run
// must reproduce the all-pairs reference's sequence and its work exactly.
func workerCountEquivalence(t *testing.T, r, s *frel.Relation, tol fuzzy.Trapezoid, extra *kernel.Program, extraRef refJoinPred) {
	t.Helper()
	r, s = sortedRel(t, r, "X"), sortedRel(t, s, "X")
	ref := NewOpStats("merge-join", "")
	want := bruteMergeJoin(r, s, tol, extraRef, ref)
	for _, workers := range []int{1, 2, 4, 8} {
		st := NewOpStats("merge-join", "")
		kj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", tol, extra, st, workers)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		sameSequence(t, name, batchDrain(t, kj), want)
		sameWork(t, name, st, ref)
	}
}

// TestParallelBandMergeJoinEquivalence repeats the property under an
// asymmetric band tolerance, which shifts the inner intervals the
// partitioner must widen cuts around.
func TestParallelBandMergeJoinEquivalence(t *testing.T) {
	tols := []fuzzy.Trapezoid{
		fuzzy.Tri(-5, 0, 5),
		fuzzy.Trap(-8, -2, 1, 12), // asymmetric: shifts Rng(r) off-centre
	}
	for ti, tol := range tols {
		for seed := int64(10); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("tol=%d/seed=%d", ti, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := vagueRel("R", 200, 800, 8, rng)
				s := vagueRel("S", 230, 800, 8, rng)
				workerCountEquivalence(t, r, s, tol, nil, nil)
			})
		}
	}
}

// TestParallelMergeJoinExtraPred checks that extra conjunctive predicates
// (the second predicate of an unnested type J query) survive partitioning.
func TestParallelMergeJoinExtraPred(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := vagueRel("R", 150, 500, 6, rng)
	s := vagueRel("S", 150, 500, 6, rng)
	extra, extraRef := pairExtras(t)
	workerCountEquivalence(t, r, s, fuzzy.Crisp(0), extra, extraRef)
}

// atomicCuts is the reference the morsel cutter is graded against: it
// walks the whole merge of both begin-sorted range columns (inner begins
// and ends widened by the band tolerance, an outer tuple first on a tie)
// and returns every atomic cut (o, i), every state at which all intervals
// of outer[:o] and inner[:i] end strictly before the next one begins.
func atomicCuts(outer, inner []fuzzy.Trapezoid, tol fuzzy.Trapezoid) map[[2]int]bool {
	cuts := map[[2]int]bool{}
	maxHi := math.Inf(-1)
	o, i := 0, 0
	for o < len(outer) || i < len(inner) {
		takeOuter := i == len(inner) || o < len(outer) && outer[o].A <= inner[i].A+tol.A
		var lo, hi float64
		if takeOuter {
			lo, hi = outer[o].A, outer[o].D
		} else {
			lo, hi = inner[i].A+tol.A, inner[i].D+tol.D
		}
		if (o > 0 || i > 0) && lo > maxHi {
			cuts[[2]int{o, i}] = true
		}
		if hi > maxHi {
			maxHi = hi
		}
		if takeOuter {
			o++
		} else {
			i++
		}
	}
	return cuts
}

// checkMorselSpans grades the cutter on one pair of begin-sorted range
// columns: its spans must tile both inputs in order, every boundary must
// be an atomic cut of the reference, and no pair whose supports intersect,
// the inner one widened by tol, may lie in two spans. It returns the
// spans.
func checkMorselSpans(t testing.TB, outer, inner []fuzzy.Trapezoid, tol fuzzy.Trapezoid, workers int) []partRange {
	t.Helper()
	spans := morselSpans(outer, inner, tol, workers)
	cuts := atomicCuts(outer, inner, tol)
	po, pi := 0, 0
	for k, p := range spans {
		if p.oLo != po || p.iLo != pi || p.oHi < p.oLo || p.iHi < p.iLo {
			t.Fatalf("workers=%d: span %d %+v does not follow (%d,%d)", workers, k, p, po, pi)
		}
		if k > 0 && !cuts[[2]int{p.oLo, p.iLo}] {
			t.Fatalf("workers=%d: boundary (%d,%d) is not an atomic cut", workers, p.oLo, p.iLo)
		}
		po, pi = p.oHi, p.iHi
	}
	if po != len(outer) || pi != len(inner) {
		t.Fatalf("workers=%d: spans end at (%d,%d), want (%d,%d)", workers, po, pi, len(outer), len(inner))
	}
	outerSpan := make([]int, len(outer))
	innerSpan := make([]int, len(inner))
	for k, p := range spans {
		for o := p.oLo; o < p.oHi; o++ {
			outerSpan[o] = k
		}
		for i := p.iLo; i < p.iHi; i++ {
			innerSpan[i] = k
		}
	}
	for o, r := range outer {
		for i, s := range inner {
			if r.Intersects(fuzzy.Add(s, tol)) && outerSpan[o] != innerSpan[i] {
				t.Fatalf("workers=%d: intersecting pair (%d,%d) split across spans %d/%d",
					workers, o, i, outerSpan[o], innerSpan[i])
			}
		}
	}
	return spans
}

// rangeColumn returns the begin-sorted range column X of r.
func rangeColumn(t testing.TB, r *frel.Relation) []fuzzy.Trapezoid {
	t.Helper()
	rs := sortedRel(t, r, "X")
	xi, _ := rs.Schema.Resolve("X")
	_, rng, err := collectSorted(NewMemSource(rs), xi, "input")
	if err != nil {
		t.Fatal(err)
	}
	return rng
}

// TestAtomicCutsIndependence grades the morsel cutter's search against the
// reference walk of every atomic cut: over inputs with wide, dangling and
// band-widened supports, chained supports (no cut at all: one morsel),
// runs of identical crisp values (a run, a group of the group-aggregate
// join, never splits) and empty inputs, at 2, 4 and 8 workers.
func TestAtomicCutsIndependence(t *testing.T) {
	tol := fuzzy.Trap(-4, -1, 2, 6)
	for seed, vagueEvery := range []int{0, 0, 450, 450, 900} {
		rng := rand.New(rand.NewSource(int64(seed)))
		outer := rangeColumn(t, vagueRel("R", 900, 20000, vagueEvery, rng))
		inner := rangeColumn(t, vagueRel("S", 1100, 20000, vagueEvery, rng))
		for _, workers := range []int{2, 4, 8} {
			if spans := checkMorselSpans(t, outer, inner, tol, workers); len(spans) < 2 {
				t.Errorf("seed %d, workers=%d: %d morsels, want several", seed, workers, len(spans))
			}
		}
	}

	// Chained supports: each interval overlaps the next, so no cut exists.
	chain := make([]fuzzy.Trapezoid, 1500)
	for k := range chain {
		chain[k] = fuzzy.Tri(float64(k), float64(k)+1, float64(k)+2)
	}
	for _, workers := range []int{2, 4, 8} {
		if spans := checkMorselSpans(t, chain, chain[:700], fuzzy.Crisp(0), workers); len(spans) != 1 {
			t.Errorf("chained supports, workers=%d: %d morsels, want 1", workers, len(spans))
		}
	}

	// Runs of 37 identical crisp values: a boundary falls between runs.
	run := func(n int) []fuzzy.Trapezoid {
		col := make([]fuzzy.Trapezoid, n)
		for k := range col {
			col[k] = fuzzy.Crisp(float64(k / 37))
		}
		return col
	}
	outer, inner := run(1400), run(900)
	for _, workers := range []int{2, 4, 8} {
		spans := checkMorselSpans(t, outer, inner, fuzzy.Crisp(0), workers)
		if len(spans) < 2 {
			t.Errorf("crisp runs, workers=%d: %d morsels, want several", workers, len(spans))
		}
		for _, p := range spans[1:] {
			if p.oLo > 0 && p.oLo < len(outer) && outer[p.oLo] == outer[p.oLo-1] {
				t.Errorf("crisp runs, workers=%d: a boundary splits the run of %v", workers, outer[p.oLo])
			}
		}
	}

	for _, workers := range []int{2, 4, 8} {
		checkMorselSpans(t, nil, nil, tol, workers)
		checkMorselSpans(t, outer, nil, tol, workers)
		checkMorselSpans(t, nil, inner, tol, workers)
	}
}

// FuzzMorselCuts grades the cutter on random begin-sorted supports: narrow
// and wide ones, crisp duplicates and a random band tolerance, at 2 to 8
// workers.
func FuzzMorselCuts(f *testing.F) {
	f.Add(int64(1), uint16(600), uint16(500), uint8(10), uint8(4), uint8(6), uint8(2))
	f.Add(int64(2), uint16(900), uint16(0), uint8(0), uint8(0), uint8(0), uint8(8))
	f.Add(int64(3), uint16(300), uint16(800), uint8(3), uint8(20), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, no, ni uint16, vagueEvery, tolLo, tolHi, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		column := func(n int) []fuzzy.Trapezoid {
			col := make([]fuzzy.Trapezoid, n)
			for k := range col {
				c := float64(rng.Intn(4 * n))
				switch w := float64(rng.Intn(6)); {
				case vagueEvery > 0 && k%int(vagueEvery) == 0:
					col[k] = fuzzy.Tri(c-w*40, c, c+w*40)
				case w < 2:
					col[k] = fuzzy.Crisp(c)
				default:
					col[k] = fuzzy.Trap(c-w, c, c+w/2, c+w)
				}
			}
			sort.SliceStable(col, func(a, b int) bool { return col[a].A < col[b].A })
			return col
		}
		outer, inner := column(int(no%1000)), column(int(ni%1000))
		tol := fuzzy.Trap(-float64(tolLo), -float64(tolLo)/2, float64(tolHi)/2, float64(tolHi))
		checkMorselSpans(t, outer, inner, tol, 2+int(workers%7))
	})
}

// TestParallelMergeJoinUnsortedInput: a parallel join must reject inputs
// that violate the Definition 3.1 order, like a serial one.
func TestParallelMergeJoinUnsortedInput(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(5)))
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(7)))
	pj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s), "R.X", "S.X",
		fuzzy.Crisp(0), nil, NewOpStats("merge-join", ""), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pj.Open(); err == nil {
		t.Fatal("unsorted outer input: want error")
	}
}

// TestRunParallelStopsAfterError: once a call fails, the pool hands out no
// further work; only calls already running finish.
func TestRunParallelStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := runParallel(4, 1000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the failing call's", err)
	}
	if n := calls.Load(); n > 8 {
		t.Errorf("%d calls after the first failed, want at most one more per worker", n)
	}
}
