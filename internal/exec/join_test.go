package exec

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// mergeJoin builds the serial merge-join of two sorted inputs, counting
// into a node of its own.
func mergeJoin(t testing.TB, outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra *kernel.PairProgram) *KernelMergeJoin {
	t.Helper()
	kj, err := NewKernelMergeJoin(outer, inner, outerAttr, innerAttr, tol, extra, NewOpStats("merge-join", ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	return kj
}

// program compiles a conjunction over one input.
func program(t testing.TB, steps ...kernel.Step) *kernel.Program {
	t.Helper()
	prog, err := kernel.Compile(steps)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// pairProgram compiles join conjuncts.
func pairProgram(t testing.TB, steps ...kernel.PairStep) *kernel.PairProgram {
	t.Helper()
	pp, err := kernel.CompilePair(steps)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func xSchema(name string) *frel.Schema {
	return frel.NewSchema(name,
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
	)
}

// randomRel builds a relation of n tuples with fuzzy X values drawn from
// [0, span] with widths in [0, maxWidth].
func randomRel(name string, n int, span, maxWidth float64, rng *rand.Rand) *frel.Relation {
	r := frel.NewRelation(xSchema(name))
	for i := 0; i < n; i++ {
		c := rng.Float64() * span
		wl := rng.Float64() * maxWidth
		wr := rng.Float64() * maxWidth
		var x fuzzy.Trapezoid
		switch rng.Intn(3) {
		case 0:
			x = fuzzy.Crisp(c)
		case 1:
			x = fuzzy.Tri(c-wl, c, c+wr)
		default:
			x = fuzzy.Trap(c-wl-wr, c-wl, c+wl, c+wl+wr)
		}
		d := rng.Float64()*0.9 + 0.1
		r.Append(frel.NewTuple(d, frel.Crisp(float64(i)), frel.Num(x)))
	}
	return r
}

func sortedSource(t *testing.T, r *frel.Relation, attr string) Source {
	t.Helper()
	c := r.Clone()
	order, err := extsort.OrderBy(c.Schema, attr, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extsort.SortRelation(c, order); err != nil {
		t.Fatal(err)
	}
	return NewMemSource(c)
}

// bruteJoin is the reference all-pairs fuzzy equi-join.
func bruteJoin(r, s *frel.Relation) *frel.Relation {
	out := frel.NewRelation(r.Schema.Join(s.Schema))
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	for _, l := range r.Tuples {
		for _, m := range s.Tuples {
			d := fuzzy.Min(l.D, m.D, fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num))
			if d > 0 {
				out.Append(l.Concat(m, d))
			}
		}
	}
	return out
}

func TestMergeJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := randomRel("R", 40, 50, 3, rng)
		s := randomRel("S", 60, 50, 3, rng)
		want := bruteJoin(r, s)

		mj := mergeJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), nil)
		got := drain(t, mj)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d: merge-join mismatch: got %d tuples, want %d", trial, got.Len(), want.Len())
		}
	}
}

func TestMergeJoinWideIntervalsDanglingTuples(t *testing.T) {
	// The Section 3 caveat: a huge interval keeps tuples in Rng(r) that do
	// not actually join. Results must still be exact.
	rng := rand.New(rand.NewSource(5))
	r := randomRel("R", 30, 40, 20, rng)
	s := randomRel("S", 30, 40, 20, rng)
	want := bruteJoin(r, s)
	mj := mergeJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), nil)
	got := drain(t, mj)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("wide-interval merge-join mismatch")
	}
}

func TestBlockNLJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randomRel("R", 35, 50, 3, rng)
	s := randomRel("S", 45, 50, 3, rng)
	want := bruteJoin(r, s)
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	on := pairProgram(t, kernel.PairStep{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.LeftColumn(ri), Right: kernel.RightColumn(si)})
	// Small block size to force several inner rescans.
	j := NewBlockNLJoin(NewMemSource(r), NewMemSource(s), on, 512, NewOpStats("nl-join", ""))
	got := drain(t, j)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("nested-loop mismatch: got %d, want %d", got.Len(), want.Len())
	}
}

func TestMergeJoinExtraPredicate(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	s := frel.NewRelation(xSchema("S"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(20)))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	s.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(20)))
	// Join on X with the extra predicate R.ID = S.ID, as in Query J'.
	ri, _ := r.Schema.Resolve("ID")
	si, _ := s.Schema.Resolve("ID")
	extra := pairProgram(t, kernel.PairStep{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.LeftColumn(ri), Right: kernel.RightColumn(si)})
	mj := mergeJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), extra)
	got := drain(t, mj)
	if got.Len() != 2 {
		t.Fatalf("len = %d, want 2 (extra predicate filters cross pairs)", got.Len())
	}
}

func TestMergeJoinRejectsUnsortedInputs(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(5))) // out of order
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(5)))
	s.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(10)))

	mj := mergeJoin(t, NewMemSource(r), NewMemSource(s), "R.X", "S.X", fuzzy.Crisp(0), nil)
	if _, err := Collect(mj); err == nil {
		t.Errorf("unsorted outer: want error")
	}

	mj2 := mergeJoin(t, NewMemSource(s), NewMemSource(r), "S.X", "R.X", fuzzy.Crisp(0), nil)
	if _, err := Collect(mj2); err == nil {
		t.Errorf("unsorted inner: want error")
	}
}

func TestMergeJoinRejectsStringAttr(t *testing.T) {
	r := frel.NewRelation(frel.NewSchema("R", frel.Attribute{Name: "NAME", Kind: frel.KindString}))
	if _, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(r.Clone()), "NAME", "NAME", fuzzy.Crisp(0), nil, NewOpStats("merge-join", ""), 1); err == nil {
		t.Errorf("string join attribute: want error")
	}
}

func TestMergeJoinCountsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 50, 40, 2, rng)
	s := randomRel("S", 50, 40, 2, rng)
	mj := mergeJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), nil)
	out := drain(t, mj)
	// Without residual conjuncts every pair compared is one degree
	// evaluation, every output row a pair compared, and the pairs compared
	// the Rng(r) lengths summed.
	snap := mj.Stats.Snapshot()
	if snap.DegreeEvals <= 0 || snap.Comparisons != snap.DegreeEvals || snap.Comparisons < int64(out.Len()) {
		t.Errorf("work: degreeEvals=%d comparisons=%d for %d rows", snap.DegreeEvals, snap.Comparisons, out.Len())
	}
	if sum := mj.Stats.RngSum.Load(); sum != snap.Comparisons {
		t.Errorf("Rng lengths sum to %d, comparisons %d", sum, snap.Comparisons)
	}
}

// TestMergeJoinExaminesOnlyRange: with narrow intervals the merge-join must
// perform far fewer pair examinations than the n*m of a nested loop.
func TestMergeJoinExaminesOnlyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 400
	r := randomRel("R", n, 10000, 1, rng)
	s := randomRel("S", n, 10000, 1, rng)
	mj := mergeJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), nil)
	drain(t, mj)
	if cmp := mj.Stats.Comparisons.Load(); cmp > n*n/10 {
		t.Errorf("comparisons = %d, want far fewer than %d", cmp, n*n)
	}
}

func TestBlockNLJoinBlockCount(t *testing.T) {
	// The inner source must be re-opened once per outer block.
	r := relXY("R",
		frel.NewTuple(1, frel.Crisp(1), frel.Str("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa")),
		frel.NewTuple(1, frel.Crisp(2), frel.Str("bbbbbbbbbbbbbbbbbbbbbbbbbbbbb")),
		frel.NewTuple(1, frel.Crisp(3), frel.Str("ccccccccccccccccccccccccccccc")),
	)
	s := relXY("S", frel.NewTuple(1, frel.Crisp(1), frel.Str("x")))
	inner := &countingSource{Source: NewMemSource(s)}
	j := NewBlockNLJoin(NewMemSource(r), inner, pairProgram(t), 80, NewOpStats("nl-join", ""))
	out := drain(t, j)
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if inner.opens < 2 {
		t.Errorf("inner opened %d times, want one per block (>= 2)", inner.opens)
	}
}

// TestBlockNLJoinSpansBatchesAndBlocks runs the nested-loop join over heap
// scans, whose batch buffers are recycled, with an outer of several
// batches cut into several blocks that end mid-batch, and checks the
// emission order (inner-major within a block), the work and the
// per-block inner rescans against the all-pairs reference.
func TestBlockNLJoinSpansBatchesAndBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randomRel("R", 2*BatchSize+500, 100, 2, rng)
	s := randomRel("S", BatchSize+100, 100, 2, rng)
	on := func(l, m frel.Tuple) float64 { return fuzzy.Eq(l.Values[1].Num, m.Values[1].Num) }
	onProg := pairProgram(t, kernel.PairStep{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.LeftColumn(1), Right: kernel.RightColumn(1)})
	const blockBytes = 50000

	var want []frel.Tuple
	blocks := 0
	for lo := 0; lo < r.Len(); blocks++ {
		hi := lo
		for used := 0; hi < r.Len() && used < blockBytes; hi++ {
			used += frel.EncodedSize(r.Schema, r.Tuples[hi])
		}
		if (hi-lo)%BatchSize == 0 {
			t.Fatalf("block of %d tuples ends on a batch boundary", hi-lo)
		}
		for _, m := range s.Tuples {
			for _, l := range r.Tuples[lo:hi] {
				if d := fuzzy.Min(l.D, m.D, on(l, m)); d > 0 {
					want = append(want, l.Concat(m, d))
				}
			}
		}
		lo = hi
	}
	if blocks < 3 || len(want) <= BatchSize {
		t.Fatalf("%d blocks, %d pairs: the case is too small", blocks, len(want))
	}

	mgr := storage.NewManager(t.TempDir(), 8)
	heap := func(rel *frel.Relation) Source {
		h, err := mgr.CreateTemp(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
		return NewHeapSource(h)
	}
	inner := &countingSource{Source: heap(s)}
	j := NewBlockNLJoin(heap(r), inner, onProg, blockBytes, NewOpStats("nl-join", ""))
	sameSequence(t, "nl-join", batchDrain(t, j), want)
	pairs := int64(r.Len()) * int64(s.Len())
	if snap := j.Stats.Snapshot(); snap.Comparisons != pairs || snap.DegreeEvals != pairs {
		t.Errorf("stats: cmp %d deg %d, want %d each", snap.Comparisons, snap.DegreeEvals, pairs)
	}
	if inner.opens != blocks {
		t.Errorf("inner opened %d times for %d blocks", inner.opens, blocks)
	}
}

type countingSource struct {
	Source
	opens int
}

func (c *countingSource) Open() (BatchIterator, error) {
	c.opens++
	return c.Source.Open()
}

// sameMultiset requires the two tuple sequences to hold the same rows at
// the same degrees, in any order.
func sameMultiset(t *testing.T, name string, got, want []frel.Tuple) {
	t.Helper()
	sorted := func(ts []frel.Tuple) []frel.Tuple {
		c := append([]frel.Tuple(nil), ts...)
		sort.Slice(c, func(i, j int) bool {
			if ki, kj := c[i].Key(), c[j].Key(); ki != kj {
				return ki < kj
			}
			return c[i].D < c[j].D
		})
		return c
	}
	sameSequence(t, name, sorted(got), sorted(want))
}

// TestNestedLoopMatchesMerge runs each nested-loop operator and its merge
// counterpart on the same compiled program: the merge side examines only
// Rng(r), the nested loop every pair, and the pairs the merge skips must
// be exactly those whose degree is 0 (Sections 3 and 5). Both relations
// carry some wide supports, so Rng(r) holds dangling inner tuples the
// merge skips. The anti-joins must give the same sequence, the joins the
// same rows, both at bit-identical degrees, with and without a floor, at
// 1, 2, 4 and 8 workers.
func TestNestedLoopMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := sortedRel(t, vagueRel("R", 150+rng.Intn(100), 600, 7, rng), "X")
		s := sortedRel(t, vagueRel("S", 150+rng.Intn(100), 600, 5, rng), "X")
		for i := range s.Tuples {
			s.Tuples[i].Values[0] = frel.Crisp(float64(rng.Intn(300))) // ID: the residual's operand
			if rng.Intn(2) == 0 {
				s.Tuples[i].D = 0.05 + 0.95*rng.Float64()
			}
		}

		// Anti-join: NOT IN on X with the JALL-style complemented link.
		terms, penalty := antiTerms(t)
		nlAnti := batchDrain(t, NewNLAntiMin(NewMemSource(r), NewMemSource(s), terms, NewOpStats("nl-anti-join", "")))
		inD := make(map[string]float64, r.Len())
		for _, tup := range r.Tuples {
			inD[tup.Key()] = tup.D
		}
		regraded := r.Len() - len(nlAnti)
		for _, tup := range nlAnti {
			if tup.D != inD[tup.Key()] {
				regraded++
			}
		}
		if regraded == 0 {
			t.Fatalf("seed %d: no inner tuple lowered an outer degree: the case proves nothing", seed)
		}
		// Join: the nested loop's condition is the merge equality followed
		// by the merge-join's residual.
		eq := kernel.PairStep{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
			Left: kernel.LeftColumn(1), Right: kernel.RightColumn(1)}
		on := pairProgram(t, append([]kernel.PairStep{eq}, extraSteps()...)...)
		nlJoin := batchDrain(t, NewBlockNLJoin(NewMemSource(r), NewMemSource(s), on, 4096, NewOpStats("nl-join", "")))
		if len(nlJoin) == 0 {
			t.Fatalf("seed %d: the nested-loop join is empty", seed)
		}

		// The floor leg: with a floor, every operator returns its unfloored
		// output thresholded at the floor, and counts what the floor
		// leaves of its work.
		_, extra := pairExtras(t)
		for _, floor := range []float64{0, 0.5} {
			nst := NewOpStats("nl-anti-join", "")
			nla := NewNLAntiMin(NewMemSource(r), NewMemSource(s), terms, nst)
			nla.Floor = floor
			nlAntiF := batchDrain(t, nla)
			sameSequence(t, "nl-anti-join floor", nlAntiF, thresholded(nlAnti, floor))
			if want := nlAntiPairs(r, s, penalty, floor); nst.Comparisons.Load() != want || nst.DegreeEvals.Load() != want {
				t.Errorf("seed %d floor %g: nl-anti-join cmp/deg %d/%d, want %d", seed, floor, nst.Comparisons.Load(), nst.DegreeEvals.Load(), want)
			}
			sw := NewOpStats("merge-anti-join", "")
			bruteAntiMin(r, s, penalty, floor, sw)
			for _, workers := range []int{1, 2, 4, 8} {
				st := NewOpStats("merge-anti-join", "")
				am, err := NewMergeAntiMin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", terms, st)
				if err != nil {
					t.Fatal(err)
				}
				am.Workers, am.Floor = workers, floor
				sameSequence(t, "anti-join", batchDrain(t, am), nlAntiF)
				sameWork(t, "anti-join", st, sw)
				if pairs := int64(r.Len() * s.Len()); st.Comparisons.Load() >= pairs {
					t.Fatalf("seed %d: the merge anti-join compared all %d pairs", seed, pairs)
				}
			}

			jst := NewOpStats("nl-join", "")
			nlj := NewBlockNLJoin(NewMemSource(r), NewMemSource(s), on, 4096, jst)
			nlj.Floor = floor
			nlJoinF := batchDrain(t, nlj)
			sameSequence(t, "nl-join floor", nlJoinF, thresholded(nlJoin, floor))
			var evals int64
			for _, l := range r.Tuples {
				for _, m := range s.Tuples {
					if min(l.D, m.D) >= floor {
						evals++
					}
				}
			}
			if pairs := int64(r.Len() * s.Len()); jst.Comparisons.Load() != pairs || jst.DegreeEvals.Load() != evals {
				t.Errorf("seed %d floor %g: nl-join cmp/deg %d/%d, want %d/%d", seed, floor, jst.Comparisons.Load(), jst.DegreeEvals.Load(), pairs, evals)
			}
			sw = NewOpStats("merge-join", "")
			bruteMergeJoinAt(r, s, fuzzy.Crisp(0), extra, FoldNone, floor, sw)
			for _, workers := range []int{1, 2, 4, 8} {
				st := NewOpStats("merge-join", "")
				kj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", fuzzy.Crisp(0),
					pairProgram(t, extraSteps()...), st, workers)
				if err != nil {
					t.Fatal(err)
				}
				kj.Floor = floor
				sameMultiset(t, "join", batchDrain(t, kj), nlJoinF)
				sameWork(t, "join", st, sw)
			}
		}
	}
}

// nlAntiPairs is the number of pairs NLAntiMin examines under a floor:
// every inner tuple for each outer tuple the floor keeps, up to the first
// that drops its running minimum to 0 or below the floor.
func nlAntiPairs(r, s *frel.Relation, penalty refJoinPred, floor float64) int64 {
	var n int64
	for _, l := range r.Tuples {
		if l.D < floor {
			continue
		}
		d := l.D
		for _, m := range s.Tuples {
			n++
			if g := penalty(l, m); g < d {
				if d = g; d == 0 || d < floor {
					break
				}
			}
		}
	}
	return n
}
