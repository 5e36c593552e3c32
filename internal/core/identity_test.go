package core

import (
	"math"
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
// of AVG).
func TestValueIdentityMatchesNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := fuzzy.Trapezoid{A: math.NaN(), B: math.NaN(), C: math.NaN(), D: math.NaN()}
	schema := func(name string) *frel.Schema {
		return frel.NewSchema(name,
			frel.Attribute{Name: "K", Kind: frel.KindNumber},
			frel.Attribute{Name: "A", Kind: frel.KindNumber},
			frel.Attribute{Name: "B", Kind: frel.KindNumber})
	}
	about := func(c float64) frel.Value { return frel.Num(fuzzy.Tri(c-2, c, c+2)) }

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
		r.Append(frel.NewTuple(degs[i%len(degs)], ks[i%len(ks)], a, about(float64(i%5))))
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
		s.Append(frel.NewTuple(degs[(i+3)%len(degs)], frel.Crisp(float64(i)), a, b))
	}

	queries := map[string]string{
		"N":  `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`,
		"JX": `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`,
		"JA": `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
	}
	for class, text := range queries {
		q, err := fsql.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		env := NewMemEnv()
		env.RegisterRelation("R", r)
		env.RegisterRelation("S", s)
		if env.Explain(q).Strategy == StrategyNaive {
			t.Fatalf("%s: not unnested", class)
		}
		naive, err := env.EvalNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.EvalUnnested(q)
		if err != nil {
			t.Fatal(err)
		}
		tol := 0.0
		if class == "JA" {
			tol = 1e-9 // AVG sums its members in another order
		}
		if !got.Equal(naive, tol) {
			t.Errorf("%s: unnested differs from naive\nunnested:\n%v\nnaive:\n%v", class, got, naive)
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
				class, zeros, negZeros, nans, got)
		}
	}
}
