package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// uvzSchema: U is the correlation attribute, Y the compared attribute.
func outerSchema() *frel.Schema {
	return frel.NewSchema("R",
		frel.Attribute{Name: "U", Kind: frel.KindNumber},
		frel.Attribute{Name: "Y", Kind: frel.KindNumber},
	)
}

func innerSchema() *frel.Schema {
	return frel.NewSchema("S",
		frel.Attribute{Name: "V", Kind: frel.KindNumber},
		frel.Attribute{Name: "Z", Kind: frel.KindNumber},
	)
}

// bruteJA evaluates the nested JA semantics directly (Section 6): for each
// outer tuple r build T(r) over all of S, aggregate, compare.
func bruteJA(r, s *frel.Relation, agg fuzzy.AggFunc, op1, op2 fuzzy.Op) *frel.Relation {
	out := frel.NewRelation(r.Schema)
	ui, _ := r.Schema.Resolve("U")
	yi, _ := r.Schema.Resolve("Y")
	vi, _ := s.Schema.Resolve("V")
	zi, _ := s.Schema.Resolve("Z")
	for _, l := range r.Tuples {
		seen := make(map[string]bool)
		var members []fuzzy.Trapezoid
		for _, m := range s.Tuples {
			d := fuzzy.Min(m.D, fuzzy.Degree(op2, m.Values[vi].Num, l.Values[ui].Num))
			if k := m.Values[zi].Key(); d > 0 && !seen[k] {
				seen[k] = true
				members = append(members, m.Values[zi].Num)
			}
		}
		a, ok := fuzzy.Aggregate(agg, members)
		if !ok {
			continue // NULL aggregate: r does not qualify
		}
		d := fuzzy.Min(l.D, fuzzy.Degree(op1, l.Values[yi].Num, a))
		if d > 0 {
			tup := l
			tup.D = d
			out.Append(tup)
		}
	}
	return out
}

func randomCorrelated(rng *rand.Rand, nOut, nIn int) (*frel.Relation, *frel.Relation) {
	r := frel.NewRelation(outerSchema())
	s := frel.NewRelation(innerSchema())
	val := func(center float64) fuzzy.Trapezoid {
		switch rng.Intn(3) {
		case 0:
			return fuzzy.Crisp(center)
		case 1:
			return fuzzy.Tri(center-1, center, center+1)
		default:
			return fuzzy.Trap(center-2, center-1, center+1, center+2)
		}
	}
	for i := 0; i < nOut; i++ {
		u := float64(rng.Intn(8)) * 10
		r.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Num(val(u)), frel.Crisp(rng.Float64()*100)))
	}
	for i := 0; i < nIn; i++ {
		v := float64(rng.Intn(8)) * 10
		s.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Num(val(v)), frel.Crisp(rng.Float64()*100)))
	}
	return r, s
}

func TestGroupAggJoinMatchesBruteForceAllAggs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	aggs := []fuzzy.AggFunc{fuzzy.AggCount, fuzzy.AggSum, fuzzy.AggAvg, fuzzy.AggMin, fuzzy.AggMax}
	ops := []fuzzy.Op{fuzzy.OpGt, fuzzy.OpLe, fuzzy.OpEq}
	for trial := 0; trial < 10; trial++ {
		r, s := randomCorrelated(rng, 25, 40)
		for _, agg := range aggs {
			for _, op1 := range ops {
				want := bruteJA(r, s, agg, op1, fuzzy.OpEq)
				j, err := NewGroupAggJoin(
					sortedSource(t, r, "U"), sortedSource(t, s, "V"),
					"R.U", "S.V", fuzzy.OpEq, "S.Z", agg, "R.Y", op1, NewOpStats("group-agg-join", ""))
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, j)
				if !got.Equal(want, 1e-12) {
					t.Fatalf("trial %d agg %v op %v: mismatch got %d want %d", trial, agg, op1, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestGroupAggJoinCountEmptyGroup: the COUNT outer-join arm — an outer
// tuple with no matching inner tuples compares against 0 (Query COUNT').
func TestGroupAggJoinCountEmptyGroup(t *testing.T) {
	r := frel.NewRelation(outerSchema())
	r.Append(frel.NewTuple(1, frel.Crisp(999), frel.Crisp(0))) // no S.V matches 999; Y = 0
	s := frel.NewRelation(innerSchema())
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(5)))

	// R.Y = COUNT(...): 0 = 0 holds with degree 1.
	j, err := NewGroupAggJoin(sortedSource(t, r, "U"), sortedSource(t, s, "V"),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggCount, "R.Y", fuzzy.OpEq, NewOpStats("group-agg-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, j)
	if got.Len() != 1 || got.Tuples[0].D != 1 {
		t.Fatalf("COUNT empty group = %v, want one tuple with degree 1", got.Tuples)
	}

	// Non-COUNT aggregate: NULL, the tuple is dropped.
	j2, err := NewGroupAggJoin(sortedSource(t, r, "U"), sortedSource(t, s, "V"),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggMax, "R.Y", fuzzy.OpEq, NewOpStats("group-agg-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got2 := drain(t, j2)
	if got2.Len() != 0 {
		t.Fatalf("MAX empty group = %v, want empty", got2.Tuples)
	}
}

// TestGroupAggJoinCountDistinctValues: COUNT counts the values in the
// fuzzy set T'(u), i.e. after duplicate elimination.
func TestGroupAggJoinCountDistinctValues(t *testing.T) {
	r := frel.NewRelation(outerSchema())
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(2))) // expects COUNT = 2
	s := frel.NewRelation(innerSchema())
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(7)))
	s.Append(frel.NewTuple(0.5, frel.Crisp(1), frel.Crisp(7))) // duplicate Z value
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(9)))

	j, err := NewGroupAggJoin(sortedSource(t, r, "U"), sortedSource(t, s, "V"),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggCount, "R.Y", fuzzy.OpEq, NewOpStats("group-agg-join", ""))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, j)
	if got.Len() != 1 || got.Tuples[0].D != 1 {
		t.Fatalf("got %v, want COUNT = 2 matching Y = 2", got.Tuples)
	}
}

// TestGroupAggJoinNonEqualityCorrelation sweeps the whole-inner window over
// an outer of several batches whose groups span batch boundaries: the
// answer is bruteJA's, and the inner is scanned once per distinct outer
// value, not once per batch a group appears in.
func TestGroupAggJoinNonEqualityCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	r, s := randomCorrelated(rng, 2*BatchSize+500, 25)
	r = sortedSource(t, r, "U").(*MemSource).Rel
	want := bruteJA(r, s, fuzzy.AggMax, fuzzy.OpGt, fuzzy.OpLe)
	st := NewOpStats("group-agg-join", "")
	j, err := NewGroupAggJoin(NewMemSource(r), NewMemSource(s),
		"R.U", "S.V", fuzzy.OpLe, "S.Z", fuzzy.AggMax, "R.Y", fuzzy.OpGt, st)
	if err != nil {
		t.Fatal(err)
	}
	sameSequence(t, "non-equality correlation", batchDrain(t, j), want.Tuples)
	groups := 0
	for i, tp := range r.Tuples {
		if i == 0 || !tp.Values[0].Identical(r.Tuples[i-1].Values[0]) {
			groups++
		}
	}
	if got := st.Comparisons.Load(); got != int64(groups*s.Len()) {
		t.Errorf("%d inner comparisons for %d groups over %d inner tuples", got, groups, s.Len())
	}
}

// TestGroupAggJoinSignedZeroGroups: outer values −0, +0, −0 are two
// distinct values. Sorted by the engine's order the two −0 tuples are
// adjacent, so the sweep builds two groups, one Rng(u) each, and the
// answer is bruteJA's.
func TestGroupAggJoinSignedZeroGroups(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := frel.NewRelation(outerSchema())
	r.Append(
		frel.NewTuple(0.9, frel.Crisp(negZero), frel.Crisp(1)),
		frel.NewTuple(0.8, frel.Crisp(0), frel.Crisp(7)),
		frel.NewTuple(0.7, frel.Crisp(negZero), frel.Crisp(3)),
	)
	s := frel.NewRelation(innerSchema())
	s.Append(
		frel.NewTuple(1, frel.Crisp(0), frel.Crisp(2)),
		frel.NewTuple(0.6, frel.Num(fuzzy.Tri(-1, 0, 1)), frel.Crisp(5)),
		frel.NewTuple(0.5, frel.Crisp(4), frel.Crisp(9)),
	)
	st := NewOpStats("group-agg-join", "")
	j, err := NewGroupAggJoin(sortedSource(t, r, "U"), sortedSource(t, s, "V"),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggMax, "R.Y", fuzzy.OpLe, st)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, j)
	if want := bruteJA(r, s, fuzzy.AggMax, fuzzy.OpLe, fuzzy.OpEq); !got.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", got.Tuples, want.Tuples)
	}
	if n := st.RngCount.Load(); n != 2 {
		t.Errorf("RngCount = %d, want 2: one per distinct outer value", n)
	}
}

// TestGroupAggJoinGroupsByBits: a group is a run of outer values
// identical bit for bit (frel.Value.Identical), not equal as floats: −0
// and +0 open separate groups, and so do two NaN payloads, while a NaN
// repeated with its payload stays one group. Six outer tuples over four
// distinct values build four groups (equality as floats would build
// five), one Rng(u) each. Only the grouping is checked, not the answer
// against bruteJA: a NaN support meets no window, while bruteJA's
// fuzzy.Min keeps a NaN degree, so the two disagree on NaN values, and
// no NaN gets into the engine (it is refused at input, DESIGN §9).
func TestGroupAggJoinGroupsByBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	r := frel.NewRelation(outerSchema())
	for i, u := range []float64{negZero, nan2, 0, nan1, nan1, nan1} {
		r.Append(frel.NewTuple(0.9, frel.Crisp(u), frel.Crisp(float64(i))))
	}
	s := frel.NewRelation(innerSchema())
	s.Append(
		frel.NewTuple(1, frel.Crisp(0), frel.Crisp(2)),
		frel.NewTuple(0.6, frel.Num(fuzzy.Tri(-1, 0, 1)), frel.Crisp(5)),
	)
	st := NewOpStats("group-agg-join", "")
	j, err := NewGroupAggJoin(sortedSource(t, r, "U"), sortedSource(t, s, "V"),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggCount, "R.Y", fuzzy.OpGe, st)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	if n := st.RngCount.Load(); n != 4 {
		t.Errorf("RngCount = %d, want 4: one per value identical bit for bit", n)
	}
}

func TestGroupAggJoinValidation(t *testing.T) {
	r := frel.NewRelation(outerSchema())
	strS := frel.NewRelation(frel.NewSchema("S",
		frel.Attribute{Name: "V", Kind: frel.KindNumber},
		frel.Attribute{Name: "Z", Kind: frel.KindString},
	))
	// SUM over a string attribute is rejected; COUNT is fine.
	if _, err := NewGroupAggJoin(NewMemSource(r), NewMemSource(strS),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggSum, "R.Y", fuzzy.OpGt, NewOpStats("group-agg-join", "")); err == nil {
		t.Errorf("SUM over strings: want error")
	}
	if _, err := NewGroupAggJoin(NewMemSource(r), NewMemSource(strS),
		"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggCount, "R.Y", fuzzy.OpGt, NewOpStats("group-agg-join", "")); err != nil {
		t.Errorf("COUNT over strings: %v", err)
	}
}

func TestGroupAggTopLevel(t *testing.T) {
	rel := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "DEPT", Kind: frel.KindString},
		frel.Attribute{Name: "SAL", Kind: frel.KindNumber},
	))
	rel.Append(
		frel.NewTuple(1.0, frel.Str("eng"), frel.Crisp(10)),
		frel.NewTuple(0.8, frel.Str("eng"), frel.Crisp(20)),
		frel.NewTuple(0.5, frel.Str("ops"), frel.Crisp(30)),
	)
	g, err := NewGroupAgg(NewMemSource(rel), []string{"DEPT"}, []AggItem{
		{Agg: fuzzy.AggCount, Ref: "SAL"},
		{Agg: fuzzy.AggSum, Ref: "SAL"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, g)
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	eng := out.Tuples[0]
	if eng.Values[0].Str != "eng" || eng.Values[1].Num != fuzzy.Crisp(2) || eng.Values[2].Num != fuzzy.Crisp(30) {
		t.Errorf("eng group = %v", eng)
	}
	if eng.D != 1.0 {
		t.Errorf("eng degree = %g, want max 1.0", eng.D)
	}
	ops := out.Tuples[1]
	if ops.Values[1].Num != fuzzy.Crisp(1) || ops.D != 0.5 {
		t.Errorf("ops group = %v", ops)
	}
	if got := g.Schema().Attrs[1].Name; got != "COUNT(R.SAL)" {
		t.Errorf("agg column name = %q", got)
	}
}

func TestGroupAggValidation(t *testing.T) {
	rel := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	))
	if _, err := NewGroupAgg(NewMemSource(rel), []string{"NOPE"}, nil); err == nil {
		t.Errorf("unknown group ref: want error")
	}
	if _, err := NewGroupAgg(NewMemSource(rel), []string{"NAME"}, []AggItem{{Agg: fuzzy.AggAvg, Ref: "NAME"}}); err == nil {
		t.Errorf("AVG over strings: want error")
	}
}
