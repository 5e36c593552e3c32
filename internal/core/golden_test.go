package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fsql"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden EXPLAIN plans and work trees under testdata/golden")

// goldenQueries holds one representative query per nesting class of the
// paper's taxonomy, plus a flat three-way join exercising the cost-based
// join ordering, a three-level chain exercising the K-level flattening
// (Theorem 8.1), and a thresholded JX query whose NEAR filters grade both
// blocks, so the push-threshold rule has outer tuples to skip and Rng(r)
// scans to stop.
var goldenQueries = []struct {
	name  string
	query string
}{
	{"n", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`},
	{"j", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`},
	{"jx", `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`},
	{"ja", `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`},
	{"ja-count", `SELECT R.K FROM R WHERE R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`},
	{"jall", `SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`},
	{"chain3", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN (SELECT T.B FROM T WHERE T.C = S.A))`},
	{"flat-join", `SELECT R.K FROM R, T, S WHERE R.A = S.A AND T.B = S.B`},
	{"jx-with", `SELECT R.K FROM R WHERE R.B NEAR 2 WITHIN TRAP(-4,0,0,4) AND R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B NEAR 3 WITHIN TRAP(-4,0,0,4)) WITH D >= 0.5`},
}

// workQueries holds one query per operator shape the repository benchmark
// never runs: the whole-inner window of the anti-join and of the join
// (string link attributes have no range order), the whole-inner window of
// the group-aggregate join (a <= correlation), the shifted inner of a NEAR
// correlation, and a top-level GROUPBY / HAVING. They run on
// workSession's relations, which carry a STRING column.
var workQueries = []struct {
	name  string
	query string
}{
	{"string-anti", `SELECT R.K FROM R WHERE R.NAME NOT IN (SELECT S.NAME FROM S WHERE S.A >= 5)`},
	{"le-agg", `SELECT R.K FROM R WHERE R.A >= (SELECT AVG(S.A) FROM S WHERE S.A <= R.A)`},
	{"string-join", `SELECT R.K FROM R, S WHERE R.NAME = S.NAME`},
	{"near-ja", `SELECT R.K FROM R WHERE R.A >= (SELECT AVG(S.B) FROM S WHERE S.A NEAR R.A WITHIN 1)`},
	{"groupby", `SELECT R.NAME, COUNT(R.K) FROM R, S WHERE R.A = S.A GROUPBY R.NAME HAVING R.NAME <> 'n0'`},
}

// goldenSession builds a deterministic on-disk database: fixed relations
// R(K, A, B), S(A, B), T(B, C) whose statistics — and therefore every
// cost and cardinality estimate in the plans — are reproducible.
func goldenSession(t *testing.T) *Session {
	t.Helper()
	var b strings.Builder
	b.WriteString(`
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (A NUMBER, B NUMBER);
		CREATE TABLE T (B NUMBER, C NUMBER);
	`)
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "INSERT INTO R VALUES (%d, %d, %d);\n", i, i%4, i%6)
	}
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "INSERT INTO S VALUES (%d, %d);\n", i%4, i%6)
	}
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "INSERT INTO T VALUES (%d, %d);\n", i%6, i%2)
	}
	return scriptSession(t, b.String())
}

// workSession is goldenSession's counterpart for workQueries:
// R(K, A, NAME), S(A, B, NAME).
func workSession(t *testing.T) *Session {
	t.Helper()
	var b strings.Builder
	b.WriteString(`
		CREATE TABLE R (K NUMBER, A NUMBER, NAME STRING);
		CREATE TABLE S (A NUMBER, B NUMBER, NAME STRING);
	`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "INSERT INTO R VALUES (%d, %d, 'n%d');\n", i, i%9, i%7)
	}
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "INSERT INTO S VALUES (%d, %d, 'n%d');\n", i%8, i%6, i%5)
	}
	return scriptSession(t, b.String())
}

func scriptSession(t *testing.T, script string) *Session {
	t.Helper()
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if _, err := execScript(sess, script); err != nil {
		t.Fatal(err)
	}
	return sess
}

// checkGolden compares got with the named file under testdata/golden, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `make golden` to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed (run `make golden` if intended)\n--- got ---\n%s--- want ---\n%s", file, got, want)
	}
}

// TestGoldenPlans snapshots the EXPLAIN output — strategy, applied
// rewrite rules, and the logical plan tree with cost/cardinality
// estimates — for every nesting class. Planner changes surface as
// reviewable diffs of testdata/golden; regenerate with `make golden`.
func TestGoldenPlans(t *testing.T) {
	sess := goldenSession(t)
	for _, gq := range goldenQueries {
		gq := gq
		t.Run(gq.name, func(t *testing.T) {
			st, err := fsql.ParseStatement("EXPLAIN " + gq.query)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := sess.Exec(st)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("-- EXPLAIN " + gq.query + "\n")
			for _, tup := range rel.Tuples {
				b.WriteString(tup.Values[0].Str)
				b.WriteByte('\n')
			}
			got := b.String()

			checkGolden(t, gq.name+".golden", got)
		})
	}
}

// unstable matches the parts of a rendered EXPLAIN ANALYZE line that vary
// from run to run: wall time and buffer-pool traffic.
var unstable = regexp.MustCompile(` (time=\S+|pool\([^)]*\))`)

// TestGoldenWork snapshots the EXPLAIN ANALYZE operator tree of every
// golden query and of workQueries, serial and cold (a fresh session per
// query), with the unstable parts stripped: what stays on a line is the
// operator, its label, and the work it did (rows, comparisons, degree
// evaluations, Rng lengths, sort runs and spill, cache traffic, kernel
// tuples, morsels). An engine change that does more work for the same
// answer, or loses a node of the tree, shows up as a diff without a
// stopwatch; regenerate with `make golden`.
func TestGoldenWork(t *testing.T) {
	run := func(name, query string, open func(*testing.T) *Session) {
		t.Run(name, func(t *testing.T) {
			sess := open(t)
			sess.Env.Parallelism = 1
			q, err := fsql.ParseQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := sess.EvalAnalyze(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got := "-- " + query + "\n" + unstable.ReplaceAllString(stats.Plan().Render(), "")
			checkGolden(t, name+".work.golden", got)
		})
	}
	for _, gq := range goldenQueries {
		run(gq.name, gq.query, goldenSession)
	}
	for _, wq := range workQueries {
		run(wq.name, wq.query, workSession)
	}
}
