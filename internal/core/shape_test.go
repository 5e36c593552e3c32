package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frel"
)

// TestOrderByDegree: ORDER BY D sorts the answer by membership degree.
func TestOrderByDegree(t *testing.T) {
	e := datingEnv()
	q := mustParse(t, `
		SELECT F.NAME FROM F
		WHERE F.AGE = 'middle age'
		ORDER BY D DESC`)
	rel, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < rel.Len(); i++ {
		if rel.Tuples[i-1].D < rel.Tuples[i].D {
			t.Fatalf("not descending: %v", rel.Tuples)
		}
	}
	q2 := mustParse(t, `
		SELECT F.NAME FROM F
		WHERE F.AGE = 'middle age'
		ORDER BY D`)
	rel2, err := evalQ(e, q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < rel2.Len(); i++ {
		if rel2.Tuples[i-1].D > rel2.Tuples[i].D {
			t.Fatalf("not ascending: %v", rel2.Tuples)
		}
	}
}

// TestOrderByAttribute: ORDER BY an attribute uses the Definition 3.1
// interval order.
func TestOrderByAttribute(t *testing.T) {
	e := datingEnv()
	q := mustParse(t, `SELECT M.ID, M.AGE FROM M ORDER BY M.AGE`)
	rel, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := rel.Schema.Resolve("AGE")
	for i := 1; i < rel.Len(); i++ {
		if frel.Compare(rel.Tuples[i-1].Values[ai], rel.Tuples[i].Values[ai]) > 0 {
			t.Fatalf("not in Definition 3.1 order: %v", rel.Tuples)
		}
	}
}

// TestLimitDeterministicEquivalence: LIMIT with ORDER BY D agrees between
// evaluators thanks to the deterministic tie-break.
func TestLimitDeterministicEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		e := envRS(rng, 20, 25, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)
			ORDER BY D DESC LIMIT 3`,
			StrategyChain)
	}
}

func TestLimitTruncates(t *testing.T) {
	e := datingEnv()
	q := mustParse(t, `SELECT F.ID FROM F LIMIT 2`)
	rel, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("LIMIT 2 returned %d tuples", rel.Len())
	}
	q0 := mustParse(t, `SELECT F.ID FROM F LIMIT 0`)
	rel0, err := evalQ(e, q0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel0.Len() != 0 {
		t.Errorf("LIMIT 0 returned %d tuples", rel0.Len())
	}
}

func TestOrderByUnknownAttr(t *testing.T) {
	e := datingEnv()
	q := mustParse(t, `SELECT F.ID FROM F ORDER BY F.NOPE`)
	if _, err := evalQ(e, q, nil); err == nil {
		t.Errorf("ORDER BY unknown attribute: want error")
	}
	if _, err := e.EvalNaive(context.Background(), q, nil); err == nil {
		t.Errorf("naive ORDER BY unknown attribute: want error")
	}
}

// TestInnerLimitFallsBackToNaive: a subquery with LIMIT cannot be
// flattened (the limit changes the inner fuzzy set).
func TestInnerLimitFallsBackToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	e := envRS(rng, 10, 12, 0)
	q := mustParse(t, `
		SELECT R.TAG FROM R
		WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U ORDER BY D DESC LIMIT 2)`)
	if p, err := e.PlanQuery(q); err == nil && p.Strategy != StrategyNaive {
		t.Errorf("strategy = %v, want naive fallback", p.Strategy)
	}
	// Both evaluators still agree (the fallback is the naive evaluation).
	naive, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	un, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(un, 1e-9) {
		t.Errorf("fallback mismatch")
	}
}

// TestDeleteStatement: DELETE removes tuples by fuzzy condition.
func TestDeleteStatement(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE W (ID NUMBER, AGE NUMBER);
		INSERT INTO W VALUES (1, 24);
		INSERT INTO W VALUES (2, 'about 35');
		INSERT INTO W VALUES (3, 61);
	`); err != nil {
		t.Fatal(err)
	}
	// Delete anyone possibly medium young (24 at 0.8, about 35 at 0.5).
	if _, err := execScript(sess, `DELETE FROM W WHERE W.AGE = 'medium young'`); err != nil {
		t.Fatal(err)
	}
	answers, err := execScript(sess, `SELECT W.ID FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 || answers[0].Tuples[0].Values[0].Num.A != 3 {
		t.Errorf("survivors = %v", answers[0].Tuples)
	}
}

// TestDeleteWithThreshold: the WITH clause raises the bar for deletion.
func TestDeleteWithThreshold(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE W (ID NUMBER, AGE NUMBER);
		INSERT INTO W VALUES (1, 24);
		INSERT INTO W VALUES (2, 'about 35');
		INSERT INTO W VALUES (3, 24) DEGREE 0.3;
	`); err != nil {
		t.Fatal(err)
	}
	// Only degree >= 0.7 deletions: 24 (0.8) goes, about 35 (0.5) stays.
	// The condition's degree is the tuple's own business: the row of
	// degree 0.3 whose AGE matches to 0.8 goes too.
	if _, err := execScript(sess, `DELETE FROM W WHERE W.AGE = 'medium young' WITH D >= 0.7`); err != nil {
		t.Fatal(err)
	}
	answers, err := execScript(sess, `SELECT W.ID FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 || answers[0].Tuples[0].Values[0].Num.A != 2 {
		t.Errorf("survivors = %v", answers[0].Tuples)
	}
}

// TestDeleteAllAndPersistence: an unconditional DELETE empties the
// relation, and the rewrite survives reopening the database.
func TestDeleteAllAndPersistence(t *testing.T) {
	dir := t.TempDir()
	sess, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE W (ID NUMBER);
		INSERT INTO W VALUES (1);
		INSERT INTO W VALUES (2);
		DELETE FROM W;
		INSERT INTO W VALUES (3);
	`); err != nil {
		t.Fatal(err)
	}
	sess2, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := execScript(sess2, `SELECT W.ID FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 || answers[0].Tuples[0].Values[0].Num.A != 3 {
		t.Errorf("after delete+reopen = %v", answers[0].Tuples)
	}
}

func TestDeleteUnknownRelation(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `DELETE FROM NOPE`); err == nil {
		t.Errorf("want error")
	}
}
