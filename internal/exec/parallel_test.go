package exec

import (
	"errors"
	"fmt"
	"math/rand"
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

// TestAtomicCutsIndependence verifies the partition invariant directly:
// no (outer, inner) pair whose supports intersect (after band widening)
// may straddle a cut.
func TestAtomicCutsIndependence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := vagueRel("R", 120, 600, 7, rng)
		s := vagueRel("S", 140, 600, 7, rng)
		tol := fuzzy.Trap(-4, -1, 2, 6)
		rs, ss := sortedRel(t, r, "X"), sortedRel(t, s, "X")
		oi, _ := rs.Schema.Resolve("X")
		ii, _ := ss.Schema.Resolve("X")
		_, oRng, err := collectSorted(NewMemSource(rs), oi, "outer")
		if err != nil {
			t.Fatal(err)
		}
		_, iRng, err := collectSorted(NewMemSource(ss), ii, "inner")
		if err != nil {
			t.Fatal(err)
		}
		ranges := atomicCuts(oRng, iRng, tol)
		// Ranges must tile both inputs in order.
		po, pi := 0, 0
		for _, p := range ranges {
			if p.oLo != po || p.iLo != pi {
				t.Fatalf("ranges do not tile: %+v after (%d,%d)", p, po, pi)
			}
			po, pi = p.oHi, p.iHi
		}
		if po != rs.Len() || pi != ss.Len() {
			t.Fatalf("ranges end at (%d,%d), want (%d,%d)", po, pi, rs.Len(), ss.Len())
		}
		outerPart := make([]int, rs.Len())
		innerPart := make([]int, ss.Len())
		for pn, p := range ranges {
			for i := p.oLo; i < p.oHi; i++ {
				outerPart[i] = pn
			}
			for i := p.iLo; i < p.iHi; i++ {
				innerPart[i] = pn
			}
		}
		for i, l := range rs.Tuples {
			for j, m := range ss.Tuples {
				shifted := fuzzy.Add(m.Values[ii].Num, tol)
				if l.Values[oi].Num.Intersects(shifted) && outerPart[i] != innerPart[j] {
					t.Fatalf("seed %d: intersecting pair (%d,%d) split across partitions %d/%d",
						seed, i, j, outerPart[i], innerPart[j])
				}
			}
		}
	}
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
