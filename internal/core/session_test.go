package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fsql"
)

func TestSessionScriptEndToEnd(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := execScript(sess, `
		CREATE TABLE W (ID NUMBER, NAME STRING, AGE NUMBER);
		INSERT INTO W VALUES (1, 'Ann', 24);
		INSERT INTO W VALUES (2, 'Bea', 'about 35');
		INSERT INTO W VALUES (3, 'Cal', 60) DEGREE 0.5;
		SELECT W.NAME FROM W WHERE W.AGE = 'medium young';
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("answers = %d", len(answers))
	}
	got := answers[0]
	want := map[string]float64{"Ann": 0.8, "Bea": 0.5}
	if got.Len() != len(want) {
		t.Fatalf("answer = %v", got.Tuples)
	}
	for _, tup := range got.Tuples {
		if math.Abs(tup.D-want[tup.Values[0].Str]) > 1e-9 {
			t.Errorf("%s degree = %g, want %g", tup.Values[0].Str, tup.D, want[tup.Values[0].Str])
		}
	}
}

func TestSessionDefineTermOverrides(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		DEFINE TERM 'nearly fifty' AS TRI(45, 50, 55);
		CREATE TABLE W (AGE NUMBER);
		INSERT INTO W VALUES ('nearly fifty');
	`); err != nil {
		t.Fatal(err)
	}
	answers, err := execScript(sess, `SELECT W.AGE FROM W WHERE W.AGE = 50`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 || answers[0].Tuples[0].D != 1 {
		t.Errorf("answer = %v", answers[0].Tuples)
	}
}

func TestSessionDropTable(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `CREATE TABLE W (X NUMBER); DROP TABLE W;`); err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `SELECT W.X FROM W`); err == nil {
		t.Errorf("query after drop: want error")
	}
	// Name reusable after drop.
	if _, err := execScript(sess, `CREATE TABLE W (X NUMBER)`); err != nil {
		t.Errorf("recreate: %v", err)
	}
}

func TestSessionInsertErrors(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `CREATE TABLE W (X NUMBER, NAME STRING)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  string
		frag string
	}{
		{`INSERT INTO W VALUES (1)`, "supplies 1 values"},
		{`INSERT INTO W VALUES ('no such term', 'a')`, "unknown linguistic term"},
		{`INSERT INTO W VALUES (1, 2)`, "numeric value for string attribute"},
		{`INSERT INTO NOPE VALUES (1)`, "unknown relation"},
	}
	for _, tc := range cases {
		_, err := execScript(sess, tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%q: err = %v, want fragment %q", tc.src, err, tc.frag)
		}
	}
}

func TestSessionUnsupportedStatement(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(nil); err == nil {
		t.Errorf("nil statement: want error")
	}
}

func TestSessionPaperTermsPreloaded(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.Catalog().Term("medium young"); !ok {
		t.Errorf("paper terms not preloaded")
	}
}

// TestSessionPersistenceAcrossReopen: a database created by one session
// is fully usable by a later session over the same directory.
func TestSessionPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sess1, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess1, `
		DEFINE TERM 'fortyish' AS TRI(35, 40, 45);
		CREATE TABLE W (ID NUMBER, AGE NUMBER);
		INSERT INTO W VALUES (1, 'fortyish');
		INSERT INTO W VALUES (2, 24);
	`); err != nil {
		t.Fatal(err)
	}

	sess2, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	// The custom term and the data both survived.
	answers, err := execScript(sess2, `SELECT W.ID FROM W WHERE W.AGE = 'fortyish'`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 || answers[0].Tuples[0].Values[0].Num.A != 1 {
		t.Errorf("answer after reopen = %v", answers[0].Tuples)
	}
	// New inserts extend the reopened relation.
	if _, err := execScript(sess2, `INSERT INTO W VALUES (3, 39)`); err != nil {
		t.Fatal(err)
	}
	answers, err = execScript(sess2, `SELECT W.ID FROM W WHERE W.AGE = 'fortyish'`)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 2 {
		t.Errorf("answer after insert = %v", answers[0].Tuples)
	}
}

func TestSessionExplainThroughEnv(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `CREATE TABLE R (U NUMBER, Y NUMBER); CREATE TABLE S (V NUMBER, Z NUMBER);`); err != nil {
		t.Fatal(err)
	}
	q, err := fsql.ParseQuery(`SELECT R.Y FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := sess.Env.PlanQuery(q); err != nil || p.Strategy != StrategyChain {
		t.Errorf("strategy = %s", PlanSummary(p, err))
	}
}

// TestSessionExplain checks EXPLAIN and EXPLAIN ANALYZE through the
// statement interface: both return a single-column PLAN relation, the
// ANALYZE form with the populated per-operator tree.
func TestSessionExplain(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO R VALUES (2, 2, 20);
		INSERT INTO S VALUES (1, 10);
		INSERT INTO S VALUES (2, 99);
	`); err != nil {
		t.Fatal(err)
	}

	run := func(src string) string {
		t.Helper()
		st, err := fsql.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sess.Exec(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.Schema.Attrs[0].Name; got != "PLAN" {
			t.Fatalf("column = %q, want PLAN", got)
		}
		var b strings.Builder
		for _, tup := range rel.Tuples {
			b.WriteString(tup.Values[0].Str)
			b.WriteByte('\n')
		}
		return b.String()
	}

	const q = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`
	plain := run(`EXPLAIN ` + q)
	if !strings.Contains(plain, "strategy: chain-join") {
		t.Errorf("EXPLAIN output:\n%s", plain)
	}
	if strings.Contains(plain, "wall:") {
		t.Errorf("plain EXPLAIN must not execute the query:\n%s", plain)
	}

	analyzed := run(`EXPLAIN ANALYZE ` + q)
	for _, want := range []string{"strategy: chain-join", "wall:", "answer: 1 tuples", "merge-join", "scan [S]"} {
		if !strings.Contains(analyzed, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, analyzed)
		}
	}
}
