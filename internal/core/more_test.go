package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

func mustParse(t *testing.T, src string) *fsql.Select {
	t.Helper()
	q, err := fsql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// TestJANonEqualityCorrelation: the JA rewrite with a non-equality
// correlation operator takes the materialized-inner path of the
// group-aggregate join.
func TestJANonEqualityCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y > (SELECT MAX(S.Z) FROM S WHERE S.V <= R.U)`,
			StrategyGroupAgg)
	}
}

// TestJAFlippedCorrelation: the correlation written outer-first
// (R.U = S.V) is normalized to S.V = R.U.
func TestJAFlippedCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y < (SELECT MIN(S.Z) FROM S WHERE R.U = S.V)`,
			StrategyGroupAgg)
	}
}

// TestJALLMultipleCorrelations: an extra non-equality correlation joins
// the penalty while the equality correlation provides the merge range.
func TestJALLMultipleCorrelations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z >= R.U)`,
			StrategyAllAnti)
	}
}

// TestJXMultipleCorrelations: JX with two correlation predicates.
func TestJXMultipleCorrelations(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z < R.Y)`,
			StrategyAntiJoin)
	}
}

// TestChainMultiRelationInnerBlock: an inner block with two relations in
// its FROM clause still flattens.
func TestChainMultiRelationInnerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 12, 14, 10)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S, T WHERE S.V = T.W AND T.P = R.U)`,
			StrategyChain)
	}
}

// TestFlatGroupByEquivalence: GROUPBY/HAVING queries agree between the
// naive cross-product path and the planned join path.
func TestFlatGroupByEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG, COUNT(S.Z), MAX(S.Z) FROM R, S
			WHERE R.Y = S.Z
			GROUPBY R.TAG`,
			StrategyFlat)
		checkEquivalence(t, e, `
			SELECT R.TAG, SUM(S.Z) FROM R, S
			WHERE R.Y = S.Z
			GROUPBY R.TAG
			HAVING R.TAG <> 't0'`,
			StrategyFlat)
	}
}

// TestHavingGradesGroups: HAVING caps each group's degree by the degree of
// its condition and drops the groups it takes to 0. The expectation is the
// same query without HAVING, graded here from the condition's definition:
// the engine and the naive evaluator share groupProject, so their
// agreement alone cannot show it.
func TestHavingGradesGroups(t *testing.T) {
	e := envRS(rand.New(rand.NewSource(49)), 30, 30, 0)
	run := func(src string) *frel.Relation {
		t.Helper()
		rel, err := evalQ(e, mustParse(t, src), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	const groups = `SELECT R.U, COUNT(S.Z) FROM R, S WHERE R.Y = S.Z GROUPBY R.U`
	all := run(groups)
	got := run(groups + ` HAVING R.U <= TRI(5, 10, 15)`)
	want := frel.NewRelation(all.Schema)
	partial := 0
	for _, tup := range all.Tuples {
		g := fuzzy.Le(tup.Values[0].Num, fuzzy.Tri(5, 10, 15))
		if g > 0 && g < 1 {
			partial++
		}
		if tup.D = fuzzy.Min(tup.D, g); tup.D > 0 {
			want.Append(tup)
		}
	}
	if partial == 0 || want.Len() == all.Len() {
		t.Fatalf("%d groups, %d graded partially, %d kept: the case proves nothing", all.Len(), partial, want.Len())
	}
	if !got.Equal(want, 0) {
		t.Fatalf("HAVING:\n%v\nwant\n%v", got, want)
	}
}

// TestGroupByDedupsSelectItems: a grouped block whose SELECT omits the
// grouping attribute answers one row per distinct item row, at the
// maximum degree of the groups that give it, in the order of its first
// group. The expectation is graded here from the same query with the
// grouping attribute, and the aggregate without GROUPBY (one group of
// width zero) from the answer of the aggregated attribute: the engine and
// the naive evaluator share groupProject, so their agreement alone cannot
// show it.
func TestGroupByDedupsSelectItems(t *testing.T) {
	e := envRS(rand.New(rand.NewSource(50)), 30, 30, 0)
	run := func(src string) map[string]*frel.Relation {
		t.Helper()
		q := mustParse(t, src)
		engine, err := evalQ(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := e.EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*frel.Relation{"engine": engine, "naive": naive}
	}
	same := func(name string, got []frel.Tuple, want *frel.Relation) {
		t.Helper()
		if len(got) != want.Len() {
			t.Fatalf("%s: %d rows, want %d:\n%v\nwant\n%v", name, len(got), want.Len(), got, want.Tuples)
		}
		for i, w := range want.Tuples {
			if got[i].Key() != w.Key() || math.Float64bits(got[i].D) != math.Float64bits(w.D) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], w)
			}
		}
	}
	// Each evaluator is held to the expectation graded from its own
	// answers: the order of first occurrence is the order it meets groups.
	const from = ` FROM R, S WHERE R.Y = S.Z`
	grouped := run(`SELECT R.U, COUNT(S.Z)` + from + ` GROUPBY R.U`)
	for name, got := range run(`SELECT COUNT(S.Z)` + from + ` GROUPBY R.U`) {
		counts := frel.NewRelation(nil)
		for _, tup := range grouped[name].Tuples {
			counts.Append(frel.Tuple{Values: tup.Values[1:], D: tup.D})
		}
		counts.DedupMax()
		if counts.Len() < 2 || counts.Len() == grouped[name].Len() {
			t.Fatalf("%s: %d groups, %d distinct counts: the case proves nothing", name, grouped[name].Len(), counts.Len())
		}
		same("GROUPBY "+name, got.Tuples, counts)
	}

	zs := run(`SELECT S.Z` + from)
	for name, got := range run(`SELECT COUNT(S.Z)` + from) {
		if zs[name].Len() < 2 {
			t.Fatalf("%s: %d values of S.Z: the case proves nothing", name, zs[name].Len())
		}
		total := frel.NewRelation(nil)
		total.Append(frel.NewTuple(0, frel.Crisp(float64(zs[name].Len()))))
		for _, tup := range zs[name].Tuples {
			total.Tuples[0].D = max(total.Tuples[0].D, tup.D)
		}
		same("no GROUPBY "+name, got.Tuples, total)
	}
}

// TestFlatCrossProduct: a flat query with no join predicate runs as a
// cross product, the merge sweep over the whole-inner window.
func TestFlatCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 5; trial++ {
		e := envRS(rng, 8, 9, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG, S.TAG FROM R, S WHERE R.U > 10`,
			StrategyFlat)
	}
}

// TestFlatNonEquiJoinOnly: a flat query whose only cross-relation
// predicate is a non-equality comparison (no merge order available).
func TestFlatNonEquiJoinOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 5; trial++ {
		e := envRS(rng, 10, 12, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R, S WHERE R.Y < S.Z AND S.V > 12`,
			StrategyFlat)
	}
}

// TestConstantPredicate: a predicate with no attribute references scales
// every answer degree.
func TestConstantPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	e := envRS(rng, 10, 10, 0)
	checkEquivalence(t, e, `
		SELECT R.TAG FROM R WHERE 3 < 5 AND R.U > 2`,
		StrategyFlat)
	// An unsatisfiable constant empties the answer.
	checkEquivalence(t, e, `
		SELECT R.TAG FROM R WHERE 5 < 3 AND R.U > 2`,
		StrategyFlat)
}

// TestDeepChainFourLevels: a 4-level chain through R, S, T and back into
// a fourth alias of R.
func TestDeepChainFourLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 5; trial++ {
		e := envRS(rng, 10, 12, 10)
		if err := e.LoadRelation("Q", randRelation("Q", 8, rng, "M", "N")); err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN
			  (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z IN
			    (SELECT T.P FROM T WHERE T.W = S.V AND T.P IN
			      (SELECT Q.N FROM Q WHERE Q.M = T.W)))`,
			StrategyChain)
	}
}

// TestMultipleChainSubqueries: several chain-compatible subquery
// predicates in one WHERE flatten together.
func TestMultipleChainSubqueries(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 12, 15, 12)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)
			  AND EXISTS (SELECT T.P FROM T WHERE T.W = R.U)`,
			StrategyChain)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S)
			  AND R.U < ANY (SELECT T.P FROM T WHERE T.W = R.Y)`,
			StrategyChain)
	}
}

// TestEmptyOuterRelation: every strategy copes with empty inputs.
func TestEmptyOuterRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	e := envRS(rng, 0, 10, 0)
	for _, src := range []string{
		`SELECT R.TAG FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`,
		`SELECT R.TAG FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)`,
		`SELECT R.TAG FROM R WHERE R.Y > (SELECT MAX(S.Z) FROM S WHERE S.V = R.U)`,
		`SELECT R.TAG FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)`,
	} {
		q := mustParse(t, src)
		rel, err := evalQ(e, q, nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if rel.Len() != 0 {
			t.Errorf("%q over empty outer = %v", src, rel.Tuples)
		}
	}
}

// TestEmptyInnerRelation: the JX/JALL Case 1 (empty T(r)) and the JA
// COUNT arm against an empty inner relation.
func TestEmptyInnerRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	e := envRS(rng, 10, 0, 0)
	for _, tc := range []struct {
		src  string
		want Strategy
	}{
		{`SELECT R.TAG FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyChain},
		{`SELECT R.TAG FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyAntiJoin},
		{`SELECT R.TAG FROM R WHERE R.Y = (SELECT COUNT(S.Z) FROM S WHERE S.V = R.U)`, StrategyGroupAgg},
		{`SELECT R.TAG FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyAllAnti},
	} {
		checkEquivalence(t, e, tc.src, tc.want)
	}
}
