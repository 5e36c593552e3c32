package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// TestValueIdentityMatchesNaive pins the engine's one value identity — the
// bitwise one of frel.Value.Identical and frel.RowSet — against the naive
// evaluator, which deduplicates by canonical key string: -0 and +0 are two
// values and a NaN-cornered value is one, wherever identity decides
// something — the projected column (duplicate elimination), the grouping
// attribute (group boundaries) and the aggregated attribute (the value set
// of AVG). The same data runs one query through both windows of every
// sweep — the range window of a numeric equality, and the whole-inner
// window of the join and anti-join over string links and of the
// group-aggregate over a <= correlation — and through every other operator
// whose condition is a compiled kernel program — the constant-predicate
// filter, the uncorrelated-aggregate filter (and its NULL aggregate) and
// HAVING — at 1 and 4 workers, answers equal to the naive evaluator's at
// bit-identical degrees (AVG within 1e-9).
func TestValueIdentityMatchesNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := fuzzy.Trapezoid{A: math.NaN(), B: math.NaN(), C: math.NaN(), D: math.NaN()}
	schema := func(name string) *frel.Schema {
		return frel.NewSchema(name,
			frel.Attribute{Name: "K", Kind: frel.KindNumber},
			frel.Attribute{Name: "A", Kind: frel.KindNumber},
			frel.Attribute{Name: "B", Kind: frel.KindNumber},
			frel.Attribute{Name: "NAME", Kind: frel.KindString})
	}
	about := func(c float64) frel.Value { return frel.Num(fuzzy.Tri(c-2, c, c+2)) }
	names := []string{"ann", "bob", "cal", "dee", "eve"}

	r := frel.NewRelation(schema("R"))
	ks := []frel.Value{frel.Crisp(0), frel.Crisp(negZero), frel.Num(nan), frel.Crisp(1)}
	degs := []float64{0.4, 0.9, 0.7, 0.6, 0.8, 1, 0.5, 0.3}
	for i := 0; i < 24; i++ {
		a := frel.Crisp(0)
		if i%2 == 1 {
			a = frel.Crisp(negZero) // same group value, other zero
		}
		if i%3 == 2 {
			a = about(100)
		}
		r.Append(frel.NewTuple(degs[i%len(degs)], ks[i%len(ks)], a, about(float64(i%5)), frel.Str(names[i%3])))
	}
	s := frel.NewRelation(schema("S"))
	for i := 0; i < 12; i++ {
		b := about(float64(i % 4))
		switch i % 6 {
		case 4:
			b = frel.Crisp(0)
		case 5:
			b = frel.Crisp(negZero)
		}
		a := frel.Crisp(0)
		if i >= 8 {
			a = about(100)
		}
		// NAME: two of R's names, one it does not have.
		s.Append(frel.NewTuple(degs[(i+3)%len(degs)], frel.Crisp(float64(i)), a, b, frel.Str(names[1+i%3])))
	}

	cases := []struct {
		class, query string
		node         string // an operator the engine must run; "" checks none
		identity     bool   // answer on R.K: one row each for +0, -0 and NaN
	}{
		{"N", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`, "merge-join", true},
		{"JX", `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`, "merge-anti-join", true},
		{"JA", `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`, "group-agg-join", true},
		{"JA <=", `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A <= R.A)`, "group-agg-join", true},
		{"string join", `SELECT R.K, R.NAME FROM R, S WHERE R.NAME = S.NAME AND R.B >= S.B`, "merge-join", false},
		{"string anti NOT IN", `SELECT R.K, R.NAME FROM R WHERE R.NAME NOT IN (SELECT S.NAME FROM S WHERE S.B <= 2)`, "merge-anti-join", false},
		{"string anti ALL", `SELECT R.K, R.NAME FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.NAME = R.NAME)`, "merge-anti-join", false},
		{"constant", `SELECT R.K, R.NAME FROM R, S WHERE R.A = S.A AND 5 >= TRI(3, 6, 9)`, "filter", false},
		{"uncorrelated", `SELECT R.K, R.NAME FROM R WHERE R.B <= (SELECT MAX(S.B) FROM S WHERE S.A = 0)`, "filter", false},
		{"uncorrelated NULL", `SELECT R.K, R.NAME FROM R WHERE R.B <= (SELECT MAX(S.B) FROM S WHERE S.A >= 1000)`, "filter", false},
		{"having", `SELECT R.NAME, COUNT(R.K) FROM R, S WHERE R.A = S.A GROUPBY R.NAME HAVING R.NAME <> 'bob'`, "", false},
	}
	for _, c := range cases {
		q, err := fsql.ParseQuery(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		for _, workers := range []int{1, 4} {
			env := memEnv(r, s)
			env.Parallelism = workers
			if p, err := env.PlanQuery(q); err != nil || p.Strategy == StrategyNaive {
				t.Fatalf("%s: not unnested", c.class)
			}
			naive, err := env.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			es := &ExecStats{}
			got, err := evalQ(env, q, es)
			if err != nil {
				t.Fatalf("%s: %v", c.class, err)
			}
			if snap := es.Plan(); c.node != "" && snap.Find(c.node) == nil {
				t.Fatalf("%s: no %s node in:\n%s", c.class, c.node, snap.Render())
			}
			tol := 0.0
			if strings.HasPrefix(c.class, "JA") {
				tol = 1e-9 // AVG sums its members in another order
			}
			if !got.Equal(naive, tol) {
				t.Errorf("%s, workers %d: unnested differs from naive\nunnested:\n%v\nnaive:\n%v", c.class, workers, got, naive)
			}
			if (got.Len() == 0) != (c.class == "uncorrelated NULL") {
				t.Errorf("%s, workers %d: %d rows", c.class, workers, got.Len())
			}
			if !c.identity {
				continue
			}
			// One row per identity: the zeros apart, the NaN once.
			var zeros, negZeros, nans int
			for _, tup := range got.Tuples {
				switch k := tup.Values[0]; {
				case k.Identical(frel.Crisp(0)):
					zeros++
				case k.Identical(frel.Crisp(negZero)):
					negZeros++
				case k.Identical(frel.Num(nan)):
					nans++
				}
			}
			if zeros != 1 || negZeros != 1 || nans != 1 {
				t.Errorf("%s: %d rows for +0, %d for -0, %d for NaN; want one each\n%v",
					c.class, zeros, negZeros, nans, got)
			}
		}
	}
}

// TestGroupByMinMaxSignedZeroMatchesNaive: a crisp -0 and a crisp +0 tie
// on the defuzzification MIN and MAX select by, so only the sign decides
// between them (-0 below +0). The engine meets R's members in R.A order
// through the merge join, the naive evaluator in heap order, which here
// puts +0 first; both must print -0 as the MIN and +0 as the MAX.
func TestGroupByMinMaxSignedZeroMatchesNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "G", Kind: frel.KindString},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	r.Append(frel.NewTuple(1, frel.Str("g"), frel.Crisp(5), frel.Crisp(0)))
	r.Append(frel.NewTuple(0.8, frel.Str("g"), frel.Crisp(1), frel.Crisp(negZero)))
	r.Append(frel.NewTuple(0.6, frel.Str("g"), frel.Crisp(3), frel.Crisp(0)))
	s := frel.NewRelation(frel.NewSchema("S", frel.Attribute{Name: "A", Kind: frel.KindNumber}))
	for _, a := range []float64{5, 3, 1} {
		s.Append(frel.NewTuple(1, frel.Crisp(a)))
	}
	q, err := fsql.ParseQuery(`SELECT R.G, MIN(R.B), MAX(R.B) FROM R, S WHERE R.A = S.A GROUPBY R.G`)
	if err != nil {
		t.Fatal(err)
	}
	env := memEnv(r, s)
	naive, err := env.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	es := &ExecStats{}
	got, err := evalQ(env, q, es)
	if err != nil {
		t.Fatal(err)
	}
	if es.Plan().Find("merge-join") == nil {
		t.Fatalf("no merge-join node in:\n%s", es.Plan().Render())
	}
	if !got.Equal(naive, 0) {
		t.Fatalf("engine differs from naive\nengine:\n%v\nnaive:\n%v", got, naive)
	}
	if got.Len() != 1 {
		t.Fatalf("%d groups, want 1:\n%v", got.Len(), got)
	}
	if mn, mx := got.Tuples[0].Values[1], got.Tuples[0].Values[2]; !mn.Identical(frel.Crisp(negZero)) || !mx.Identical(frel.Crisp(0)) {
		t.Errorf("MIN %v, MAX %v; want -0 and +0", mn, mx)
	}
}
