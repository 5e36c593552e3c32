package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// randRelation builds a relation with fuzzy numeric attributes A1..Ak over
// small domains (to force collisions) and a string TAG attribute.
func randRelation(name string, n int, rng *rand.Rand, attrs ...string) *frel.Relation {
	var as []frel.Attribute
	for _, a := range attrs {
		as = append(as, frel.Attribute{Name: a, Kind: frel.KindNumber})
	}
	as = append(as, frel.Attribute{Name: "TAG", Kind: frel.KindString})
	r := frel.NewRelation(frel.NewSchema(name, as...))
	for i := 0; i < n; i++ {
		vals := make([]frel.Value, 0, len(as))
		for range attrs {
			c := float64(rng.Intn(12)) * 2
			switch rng.Intn(3) {
			case 0:
				vals = append(vals, frel.Crisp(c))
			case 1:
				vals = append(vals, frel.Num(fuzzy.Tri(c-1, c, c+1)))
			default:
				vals = append(vals, frel.Num(fuzzy.Trap(c-2, c-1, c+1, c+2)))
			}
		}
		vals = append(vals, frel.Str(fmt.Sprintf("t%d", rng.Intn(6))))
		r.Append(frel.NewTuple(rng.Float64()*0.95+0.05, vals...))
	}
	return r
}

// memEnv returns a NewMemEnv environment holding rels, each loaded under
// its schema name.
func memEnv(rels ...*frel.Relation) *Env {
	e := NewMemEnv()
	for _, r := range rels {
		if err := e.LoadRelation(r.Schema.Name, r); err != nil {
			panic(err)
		}
	}
	return e
}

// evalQ plans q and runs it on the engine (Env.Eval) with a background
// context; a non-nil es collects the run's EXPLAIN ANALYZE tree.
func evalQ(e *Env, q *fsql.Select, es *ExecStats) (*frel.Relation, error) {
	p, err := e.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return e.Eval(context.Background(), p, es)
}

// execScript parses a semicolon-separated script and executes its
// statements in order, returning the answer of each query and EXPLAIN.
func execScript(s *Session, src string) ([]*frel.Relation, error) {
	stmts, err := fsql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var answers []*frel.Relation
	for _, st := range stmts {
		rel, err := s.Exec(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st, err)
		}
		if rel != nil {
			answers = append(answers, rel)
		}
	}
	return answers, nil
}

// envRS builds an environment with random relations R(U, Y, TAG),
// S(V, Z, TAG) and T(W, P, TAG).
func envRS(rng *rand.Rand, nR, nS, nT int) *Env {
	return memEnv(
		randRelation("R", nR, rng, "U", "Y"),
		randRelation("S", nS, rng, "V", "Z"),
		randRelation("T", nT, rng, "W", "P"))
}

// checkEquivalence evaluates the query with both evaluators and requires
// identical fuzzy relations (Theorems 4.1-8.1: same tuples, same degrees).
func checkEquivalence(t *testing.T, e *Env, src string, wantStrategy Strategy) {
	t.Helper()
	q, err := fsql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if p, err := e.PlanQuery(q); err != nil || p.Strategy != wantStrategy {
		t.Errorf("strategy for %q = %s, want %v", src, PlanSummary(p, err), wantStrategy)
	}
	naive, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("EvalNaive(%q): %v", src, err)
	}
	unnested, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if !naive.Equal(unnested, 1e-9) {
		t.Fatalf("equivalence violated for %q:\nnaive (%d tuples): %v\nunnested (%d tuples): %v",
			src, naive.Len(), naive.Tuples, unnested.Len(), unnested.Tuples)
	}
}

// TestTheorem41TypeN: uncorrelated IN subqueries (Query N ≡ Query N′).
func TestTheorem41TypeN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		e := envRS(rng, 25, 35, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.U > 4 AND R.Y IN (SELECT S.Z FROM S WHERE S.V < 18)`,
			StrategyChain)
	}
}

// TestTheorem42TypeJ: correlated IN subqueries (Query J ≡ Query J′).
func TestTheorem42TypeJ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		e := envRS(rng, 25, 35, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`,
			StrategyChain)
	}
}

// TestTheorem51TypeJX: NOT IN with correlation (Query JX ≡ Query JX′).
func TestTheorem51TypeJX(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		e := envRS(rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)`,
			StrategyAntiJoin)
	}
}

// TestTheorem51TypeNX: NOT IN without correlation.
func TestTheorem51TypeNX(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		e := envRS(rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V > 8)`,
			StrategyAntiJoin)
	}
}

// TestTheorem51WithOuterAndInnerPredicates: the paper notes the JX result
// holds when p1 and p2 are present.
func TestTheorem51WithOuterAndInnerPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		e := envRS(rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.U < 16 AND R.Y NOT IN
			  (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z > 2)`,
			StrategyAntiJoin)
	}
}

// TestTheorem61TypeJA: scalar aggregate subqueries with correlation
// (Query JA ≡ Query JA′), for every aggregate function and several
// comparison operators.
func TestTheorem61TypeJA(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, agg := range []string{"SUM", "AVG", "MIN", "MAX"} {
		for _, op := range []string{">", "<=", "="} {
			src := fmt.Sprintf(`
				SELECT R.TAG FROM R
				WHERE R.Y %s (SELECT %s(S.Z) FROM S WHERE S.V = R.U)`, op, agg)
			for trial := 0; trial < 5; trial++ {
				e := envRS(rng, 20, 30, 0)
				checkEquivalence(t, e, src, StrategyGroupAgg)
			}
		}
	}
}

// TestTheorem61Count: the COUNT case needs the left outer join arm
// (Query COUNT′): outer tuples with empty groups compare against 0.
func TestTheorem61Count(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range []string{"=", ">", "<"} {
		src := fmt.Sprintf(`
			SELECT R.TAG FROM R
			WHERE R.Y %s (SELECT COUNT(S.Z) FROM S WHERE S.V = R.U)`, op)
		for trial := 0; trial < 5; trial++ {
			// Small inner relation: many outer tuples have empty groups.
			e := envRS(rng, 25, 6, 0)
			checkEquivalence(t, e, src, StrategyGroupAgg)
		}
	}
}

// TestTheorem61InnerPredicate: JA with p2 on the inner block.
func TestTheorem61InnerPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.U > 2 AND R.Y < (SELECT MAX(S.Z) FROM S WHERE S.V = R.U AND S.Z < 20)`,
			StrategyGroupAgg)
	}
}

// TestTheorem71TypeJALL: op ALL with correlation (Query JALL ≡ JALL′).
func TestTheorem71TypeJALL(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, op := range []string{"<", ">=", "="} {
		src := fmt.Sprintf(`
			SELECT R.TAG FROM R
			WHERE R.Y %s ALL (SELECT S.Z FROM S WHERE S.V = R.U)`, op)
		for trial := 0; trial < 5; trial++ {
			e := envRS(rng, 20, 30, 0)
			checkEquivalence(t, e, src, StrategyAllAnti)
		}
	}
}

// TestQuantifierAny: ANY/SOME unnest by flattening (Section 7 notes EXIST
// and SOME are unnested similarly).
func TestQuantifierAny(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, q := range []string{"ANY", "SOME"} {
		src := fmt.Sprintf(`
			SELECT R.TAG FROM R
			WHERE R.Y < %s (SELECT S.Z FROM S WHERE S.V = R.U)`, q)
		for trial := 0; trial < 5; trial++ {
			e := envRS(rng, 20, 30, 0)
			checkEquivalence(t, e, src, StrategyChain)
		}
	}
}

// TestTheorem81Chain: 3-level chain queries (Query Q_K ≡ Q′_K) with
// correlation predicates skipping levels, like Query 6 of the paper.
func TestTheorem81Chain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 25)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN
			  (SELECT S.Z FROM S
			   WHERE S.V = R.U AND S.Z IN
			     (SELECT T.P FROM T
			      WHERE T.W = S.V AND T.P = R.Y))`,
			StrategyChain)
	}
}

// TestChainUncorrelatedLevels: a 3-level chain where the innermost block
// is uncorrelated.
func TestChainUncorrelatedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 25)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN
			  (SELECT S.Z FROM S
			   WHERE S.Z IN (SELECT T.P FROM T WHERE T.W < 12))`,
			StrategyChain)
	}
}

// TestUncorrelatedScalar: an aggregate subquery without correlation is
// folded into a constant (Section 6: "no unnesting is needed").
func TestUncorrelatedScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, agg := range []string{"MAX", "COUNT", "AVG"} {
		src := fmt.Sprintf(`
			SELECT R.TAG FROM R
			WHERE R.Y >= (SELECT %s(S.Z) FROM S WHERE S.V < 10)`, agg)
		for trial := 0; trial < 5; trial++ {
			e := envRS(rng, 20, 25, 0)
			checkEquivalence(t, e, src, StrategyUncorrelated)
		}
	}
}

// TestFlatQueriesViaPlanner: already-flat multi-relation queries run
// through the DP join planner and must match the naive cross-product
// evaluation.
func TestFlatQueriesViaPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 12)
		checkEquivalence(t, e, `
			SELECT R.TAG, S.TAG FROM R, S
			WHERE R.Y = S.Z AND R.U < 14`,
			StrategyFlat)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R, S, T
			WHERE R.Y = S.Z AND S.V = T.W AND T.P > 6`,
			StrategyFlat)
	}
}

// TestWithThresholdEquivalence: the WITH clause applies identically.
func TestWithThresholdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)
			WITH D >= 0.4`,
			StrategyChain)
	}
}

// TestExample41Unnested: the unnested evaluation of Query 2 reproduces the
// paper's Example 4.1 answer.
func TestExample41Unnested(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(query2)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := e.PlanQuery(q); err != nil || p.Strategy != StrategyChain {
		t.Errorf("strategy = %s", PlanSummary(p, err))
	}
	got, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswer(t, got, map[string]float64{"Ann": 0.7, "Betty": 0.7})
}

// TestNaiveFallbacks: shapes outside the paper's classes fall back to the
// naive evaluator but still produce answers.
func TestNaiveFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	e := envRS(rng, 10, 12, 8)
	cases := []string{
		// Two subquery predicates where one is not chain-compatible.
		`SELECT R.TAG FROM R
		 WHERE R.Y IN (SELECT S.Z FROM S) AND R.U NOT IN (SELECT T.P FROM T)`,
		// ALL nested inside a chain.
		`SELECT R.TAG FROM R
		 WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V < ALL (SELECT T.P FROM T))`,
	}
	for _, src := range cases {
		q, err := fsql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if p, err := e.PlanQuery(q); err == nil && p.Strategy != StrategyNaive {
			t.Errorf("strategy for %q = %v, want naive fallback", src, p.Strategy)
		}
		naive, err := e.EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		unnested, err := evalQ(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(unnested, 1e-9) {
			t.Errorf("fallback result differs for %q", src)
		}
	}
}

// TestAliasReuseFallsBack: chain flattening requires distinct bindings.
func TestAliasReuseFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := memEnv(randRelation("R", 8, rng, "U", "Y"))
	q, err := fsql.ParseQuery(`
		SELECT A.TAG FROM R A
		WHERE A.Y IN (SELECT A.U FROM R A WHERE A.Y > 4)`)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := e.PlanQuery(q); err == nil && p.Strategy != StrategyNaive {
		t.Errorf("strategy = %v, want naive (alias reuse)", p.Strategy)
	}
}

// TestStringLinkNotIn: NOT IN over string attributes is unnested to the
// anti-join, whose range comes from the numeric correlation.
func TestStringLinkNotIn(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.U FROM R
			WHERE R.TAG NOT IN (SELECT S.TAG FROM S WHERE S.V = R.U)`,
			StrategyAntiJoin)
	}
}

// TestSelectMultipleItems: projections of several attributes dedup as
// value combinations.
func TestSelectMultipleItems(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 25, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG, R.U FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`,
			StrategyChain)
	}
}

func TestStrategyString(t *testing.T) {
	for s := StrategyFlat; s <= StrategyNaive; s++ {
		if s.String() == "" {
			t.Errorf("empty name for strategy %d", s)
		}
	}
}
