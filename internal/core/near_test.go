package core

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
)

// TestNearFlatJoin: a flat query whose only cross-relation predicate is a
// NEAR similarity runs as a band merge-join and matches the naive
// cross-product evaluation.
func TestNearFlatJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 25, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG, S.TAG FROM R, S
			WHERE R.Y NEAR S.Z WITHIN 3`,
			StrategyFlat)
	}
}

func TestNearFuzzyTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 25, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R, S
			WHERE R.Y NEAR S.Z WITHIN TRAP(-4, -1, 1, 4) AND S.V > 6`,
			StrategyFlat)
	}
}

// TestNearLocalPredicate: NEAR against a literal acts as a fuzzy
// selection.
func TestNearLocalPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 0, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R WHERE R.Y NEAR 10 WITHIN 4`,
			StrategyFlat)
	}
}

// TestNearInsideChain: NEAR as the correlation predicate of an IN chain.
func TestNearInsideChain(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V NEAR R.U WITHIN 2)`,
			StrategyChain)
	}
}

// TestNearInAntiJoin: NEAR correlation inside a NOT IN block joins the
// anti-join penalty.
func TestNearInAntiJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V NEAR R.U WITHIN 2)`,
			StrategyAntiJoin)
	}
}

// TestNearCrispBandSemantics: exact band-join behavior on crisp data.
func TestNearCrispBandSemantics(t *testing.T) {
	e := memEnv(relOf("R", []float64{10, 20, 30}), relOf("S", []float64{12, 26, 300}))
	q := mustParse(t, `SELECT R.Y, S.Z FROM R, S WHERE R.Y NEAR S.Z WITHIN 5`)
	rel, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (10,12) diff 2; (30,26) diff 4. Not (20,26) diff 6.
	if rel.Len() != 2 {
		t.Fatalf("band matches = %v", rel.Tuples)
	}
	for _, tup := range rel.Tuples {
		if tup.D != 1 {
			t.Errorf("crisp band degree = %g, want 1", tup.D)
		}
	}
}

// relOf builds a one-numeric-column relation named after its role: the
// column is Y for R and Z for S (so NEAR tests can reference both).
func relOf(name string, vals []float64) *frel.Relation {
	col := "Y"
	if name == "S" {
		col = "Z"
	}
	r := frel.NewRelation(frel.NewSchema(name, frel.Attribute{Name: col, Kind: frel.KindNumber}))
	for _, v := range vals {
		r.Append(frel.NewTuple(1, frel.Crisp(v)))
	}
	return r
}

// TestSampledSelectivityImprovesOrder: two equal-sized equality edges with
// very different selectivities — the sampled estimates must steer the DP
// order toward the selective edge, doing less work than the syntactic
// order.
func TestSampledSelectivityImprovesOrder(t *testing.T) {
	mk := func(name, col string, n, distinct int) *frel.Relation {
		r := frel.NewRelation(frel.NewSchema(name, frel.Attribute{Name: col, Kind: frel.KindNumber}))
		for i := 0; i < n; i++ {
			r.Append(frel.NewTuple(1, frel.Crisp(float64(i%distinct))))
		}
		return r
	}
	const n = 400
	// R.A joins S.A with huge fanout (4 distinct values); S joins T on B
	// with tiny fanout (distinct values ≈ n).
	rRel := mk("R", "A", n, 4)
	sRel := frel.NewRelation(frel.NewSchema("S",
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber},
	))
	for i := 0; i < n; i++ {
		sRel.Append(frel.NewTuple(1, frel.Crisp(float64(i%4)), frel.Crisp(float64(i))))
	}
	tRel := mk("T", "B", n, n)

	query := `SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B`
	run := func(disable bool) int64 {
		e := memEnv(rRel, sRel, tRel)
		e.DisableJoinReorder = disable
		q := mustParse(t, query)
		if _, err := evalQ(e, q, nil); err != nil {
			t.Fatal(err)
		}
		return e.Work.DegreeEvals.Load()
	}
	dp := run(false)
	syntactic := run(true)
	if dp >= syntactic {
		t.Errorf("sampled DP order did %d degree evals, syntactic %d; want fewer", dp, syntactic)
	}
}
