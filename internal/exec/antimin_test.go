package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// eqTerms is the penalty conjunct of a NOT IN on one attribute:
// d(outer[oi] = inner[ii]).
func eqTerms(t testing.TB, oi, ii int) *kernel.Program {
	return program(t, kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.Column(oi), Right: kernel.RightColumn(ii)})
}

// bruteNotIn computes, for each outer tuple r, the JX degree
// d'_r = min(µR(r), min over ALL s of (1 − min(µS(s), d(r.X = s.X)))),
// the reference for MergeAntiMin with a NOT IN penalty.
func bruteNotIn(r, s *frel.Relation) *frel.Relation {
	out := frel.NewRelation(r.Schema)
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	for _, l := range r.Tuples {
		d := l.D
		for _, m := range s.Tuples {
			pen := 1 - fuzzy.Min(m.D, fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num))
			if pen < d {
				d = pen
			}
		}
		if d > 0 {
			t := l
			t.D = d
			out.Append(t)
		}
	}
	return out
}

func TestMergeAntiMinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		r := randomRel("R", 30, 40, 3, rng)
		s := randomRel("S", 40, 40, 3, rng)
		want := bruteNotIn(r, s)

		ri, _ := r.Schema.Resolve("X")
		si, _ := s.Schema.Resolve("X")
		op, err := NewMergeAntiMin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", eqTerms(t, ri, si), NewOpStats("merge-anti-join", ""))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, op)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d: anti-min mismatch: got %d tuples, want %d", trial, got.Len(), want.Len())
		}
	}
}

func TestMergeAntiMinEmptyInner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRel("R", 10, 40, 2, rng)
	s := frel.NewRelation(xSchema("S"))
	op, err := NewMergeAntiMin(sortedSource(t, r, "X"), NewMemSource(s), "R.X", "S.X", nil, NewOpStats("merge-anti-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, op)
	// With an empty inner relation every outer tuple keeps its own degree
	// (Case 1 of Theorem 5.1).
	if got.Len() != r.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), r.Len())
	}
	sortedR := drain(t, sortedSource(t, r, "X"))
	for i := range got.Tuples {
		if got.Tuples[i].D != sortedR.Tuples[i].D {
			t.Errorf("tuple %d degree = %g, want %g", i, got.Tuples[i].D, sortedR.Tuples[i].D)
		}
	}
}

func TestMergeAntiMinDropsZeroDegree(t *testing.T) {
	// A crisp exact match with full degrees drives the penalty to 0.
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(5)))
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(9), frel.Crisp(5)))
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	op, err := NewMergeAntiMin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", eqTerms(t, ri, si), NewOpStats("merge-anti-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, op)
	if got.Len() != 0 {
		t.Errorf("len = %d, want 0", got.Len())
	}
}

func TestMergeAntiMinRejectsUnsorted(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(5)))
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(7)))
	op, err := NewMergeAntiMin(NewMemSource(r), NewMemSource(s), "R.X", "S.X", nil, NewOpStats("merge-anti-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(op); err == nil {
		t.Errorf("unsorted outer: want error")
	}
}

// bruteAll computes the JALL degree for R.X < ALL (inner X values):
// d_r = min(µR(r), min over s of (1 − min(µS(s), 1 − d(r.X < s.X)))).
// Note the range attribute used by the operator must come from an
// equality predicate; here we use a separate correlation attribute ID.
func TestMergeAntiMinQuantifiedAllStyle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// R and S correlated on crisp ID (equality), compared on X with <.
	mk := func(name string, n int) *frel.Relation {
		r := frel.NewRelation(xSchema(name))
		for i := 0; i < n; i++ {
			id := float64(rng.Intn(6))
			c := rng.Float64() * 30
			r.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Crisp(id), frel.Num(fuzzy.Tri(c-1, c, c+1))))
		}
		return r
	}
	r := mk("R", 25)
	s := mk("S", 35)

	rid, _ := r.Schema.Resolve("ID")
	sid, _ := s.Schema.Resolve("ID")
	rx, _ := r.Schema.Resolve("X")
	sx, _ := s.Schema.Resolve("X")
	penalty := func(l, m frel.Tuple) float64 {
		return 1 - fuzzy.Min(
			m.D,
			fuzzy.Eq(l.Values[rid].Num, m.Values[sid].Num),
			1-fuzzy.Lt(l.Values[rx].Num, m.Values[sx].Num),
		)
	}

	want := frel.NewRelation(r.Schema)
	for _, l := range r.Tuples {
		d := l.D
		for _, m := range s.Tuples {
			if p := penalty(l, m); p < d {
				d = p
			}
		}
		if d > 0 {
			tup := l
			tup.D = d
			want.Append(tup)
		}
	}

	// Range on the equality attribute ID; the conjuncts are the penalty's.
	terms := program(t,
		kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
			Left: kernel.Column(rid), Right: kernel.RightColumn(sid)},
		kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpLt, Neg: true,
			Left: kernel.Column(rx), Right: kernel.RightColumn(sx)})
	op, err := NewMergeAntiMin(sortedSource(t, r, "ID"), sortedSource(t, s, "ID"), "R.ID", "S.ID", terms, NewOpStats("merge-anti-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, op)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("JALL-style anti-min mismatch: got %d, want %d", got.Len(), want.Len())
	}
}
