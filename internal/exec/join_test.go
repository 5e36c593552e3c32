package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// mergeJoin builds the serial merge-join of two sorted inputs, counting
// into a node of its own.
func mergeJoin(t testing.TB, outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra *kernel.Program) *KernelMergeJoin {
	t.Helper()
	kj, err := NewKernelMergeJoin(outer, inner, outerAttr, innerAttr, tol, extra, NewOpStats("merge-join", ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	return kj
}

// program compiles a conjunction.
func program(t testing.TB, steps ...kernel.Step) *kernel.Program {
	t.Helper()
	prog, err := kernel.Compile(steps)
	if err != nil {
		t.Fatal(err)
	}
	return prog
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

// sortedSource serves a copy of r sorted on attr by the engine's order,
// the reference sort of these tests: a stable sort by frel.Compare.
func sortedSource(t *testing.T, r *frel.Relation, attr string) Source {
	t.Helper()
	c := r.Clone()
	if err := c.SortBy(attr); err != nil {
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
	extra := program(t, kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.Column(ri), Right: kernel.RightColumn(si)})
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

type countingSource struct {
	Source
	opens int
}

func (c *countingSource) Open() (BatchIterator, error) {
	c.opens++
	return c.Source.Open()
}
