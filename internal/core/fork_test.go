package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

func mustParseQuery(t *testing.T, src string) *fsql.Select {
	t.Helper()
	q, err := fsql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestForkTermScope checks the session → database term resolution order:
// a DEFINE TERM through a forked session lands in its private scope,
// shadows the shared definition for that fork only, and disappears when
// the fork is closed.
func TestForkTermScope(t *testing.T) {
	base, err := OpenSession(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := execScript(base, `
		CREATE TABLE F (NAME STRING, AGE NUMBER);
		INSERT INTO F VALUES ('Ann', 25);
		INSERT INTO F VALUES ('Old Joe', 70);
	`); err != nil {
		t.Fatal(err)
	}

	f1 := base.Fork()
	defer f1.Close()
	f2 := base.Fork()
	defer f2.Close()

	// f1 redefines "young" privately to cover age 70.
	if _, err := execScript(f1, `DEFINE TERM 'young' AS TRAP(0, 0, 80, 90)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT F.NAME FROM F WHERE F.AGE = 'young'`
	count := func(s *Session) int {
		rels, err := execScript(s, q)
		if err != nil {
			t.Fatal(err)
		}
		return rels[0].Len()
	}
	if got := count(f1); got != 2 {
		t.Errorf("fork with private 'young': %d answers, want 2", got)
	}
	// f2 and the base still see the paper's "young" (Ann only).
	if got := count(f2); got != 1 {
		t.Errorf("sibling fork: %d answers, want 1", got)
	}
	if got := count(base); got != 1 {
		t.Errorf("base session: %d answers, want 1", got)
	}

	// A term unknown everywhere reports ErrUnknownTerm.
	if _, err := execScript(f2, `SELECT F.NAME FROM F WHERE F.AGE = 'no such term'`); err == nil {
		t.Error("want unknown-term error")
	}

	// A shared term defined through the base session is visible to forks
	// unless shadowed.
	if _, err := execScript(base, `DEFINE TERM 'ancient' AS TRAP(60, 65, 120, 120)`); err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(f2, `SELECT F.NAME FROM F WHERE F.AGE = 'ancient'`); err != nil {
		t.Errorf("fork cannot see shared term: %v", err)
	}
}

// TestScopedTermRefusesNaN: a session-local term definition takes no NaN
// or infinite corner, neither through DEFINE TERM (its literal is refused
// when parsed) nor through DefineScopedTerm, and a refused term stays
// undefined.
func TestScopedTermRefusesNaN(t *testing.T) {
	base, err := OpenSession(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := execScript(base, `CREATE TABLE F (AGE NUMBER); INSERT INTO F VALUES (25);`); err != nil {
		t.Fatal(err)
	}
	f := base.Fork()
	defer f.Close()
	if _, err := execScript(f, `DEFINE TERM 'odd' AS ABOUT(1.7e308)`); err == nil {
		t.Error("DEFINE TERM with an infinite corner: want error")
	}
	nan := math.NaN()
	for _, tr := range []fuzzy.Trapezoid{{A: nan, B: nan, C: nan, D: nan}, {A: 0, B: nan, C: 1, D: 2}, {A: 0, B: 1, C: 2, D: math.Inf(1)}} {
		if err := f.Env.DefineScopedTerm("odd", tr); err == nil {
			t.Errorf("DefineScopedTerm(%v): want error", tr)
		}
	}
	if _, err := execScript(f, `SELECT F.AGE FROM F WHERE F.AGE = 'odd'`); err == nil {
		t.Error("a refused term is defined")
	}
}

// TestEvalPlanReuse executes one cached plan repeatedly while the base
// relation changes; re-execution must observe the new contents.
func TestEvalPlanReuse(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := execScript(sess, `
		CREATE TABLE R (K NUMBER, B NUMBER);
		CREATE TABLE S (B NUMBER);
		INSERT INTO R VALUES (1, 10);
		INSERT INTO S VALUES (10);
	`); err != nil {
		t.Fatal(err)
	}
	q := mustParseQuery(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	p, err := sess.Env.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rel, err := sess.Env.Eval(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("first execution: %d answers, want 1", rel.Len())
	}
	if _, err := execScript(sess, `INSERT INTO R VALUES (2, 10)`); err != nil {
		t.Fatal(err)
	}
	rel, err = sess.Env.Eval(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("re-execution after insert: %d answers, want 2", rel.Len())
	}
}
