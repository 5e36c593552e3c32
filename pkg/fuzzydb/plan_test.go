package fuzzydb

import (
	"context"
	"strings"
	"testing"
)

func planDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Exec(`
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO R VALUES (2, 2, 20);
		INSERT INTO S VALUES (1, 10);
		INSERT INTO S VALUES (2, 99);
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlanInspection(t *testing.T) {
	db := planDB(t)
	info, err := db.Plan(`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "chain-join" {
		t.Errorf("strategy = %q", info.Strategy)
	}
	if len(info.Rules) != 1 || info.Rules[0] != "unnest-in" {
		t.Errorf("rules = %v", info.Rules)
	}
	if info.Cost <= 0 || info.Rows <= 0 {
		t.Errorf("estimates rows=%g cost=%g, want positive", info.Rows, info.Cost)
	}
	if info.NaiveCost <= info.Cost {
		t.Errorf("naive cost %g not above plan cost %g", info.NaiveCost, info.Cost)
	}
	for _, want := range []string{"rules: unnest-in", "join", "scan R", "scan S", "threshold"} {
		if !strings.Contains(info.Tree, want) {
			t.Errorf("plan tree missing %q:\n%s", want, info.Tree)
		}
	}
}

func TestPlanFlatQuery(t *testing.T) {
	db := planDB(t)
	info, err := db.Plan(`SELECT R.K FROM R WHERE R.A = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "flat" || len(info.Rules) != 0 {
		t.Errorf("strategy = %q rules = %v", info.Strategy, info.Rules)
	}
}

func TestPlanParseError(t *testing.T) {
	db := planDB(t)
	if _, err := db.Plan(`SELECT FROM WHERE`); err == nil {
		t.Fatal("Plan of malformed SQL succeeded")
	}
}

// resultLines returns a one-column result's rows.
func resultLines(t *testing.T, res *Result) []string {
	t.Helper()
	if cols := res.Columns(); len(cols) != 1 || cols[0] != "PLAN" {
		t.Fatalf("columns = %v, want [PLAN]", cols)
	}
	lines := make([]string, res.Len())
	for i := range lines {
		lines[i] = res.Row(i)[0]
	}
	return lines
}

// TestQueryExplain: every Query entry point answers EXPLAIN [ANALYZE]
// with the PLAN rows the shell prints, the strategy line and the plan
// tree; the SELECT-only entry points still refuse it, and Query refuses a
// statement that is not a read.
func TestQueryExplain(t *testing.T) {
	db := planDB(t)
	ctx := context.Background()
	const sel = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`
	summary, err := db.Explain(sel)
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"strategy: " + summary}, strings.Split(info.Tree, "\n")...)
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	queries := map[string]func(string) (*Result, error){
		"DB.Query":             db.Query,
		"DB.QueryContext":      func(q string) (*Result, error) { return db.QueryContext(ctx, q) },
		"Session.Query":        sess.Query,
		"Session.QueryContext": func(q string) (*Result, error) { return sess.QueryContext(ctx, q) },
	}
	for name, query := range queries {
		res, err := query("EXPLAIN " + sel + ";")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resultLines(t, res); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: EXPLAIN rows\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		res, err = query("EXPLAIN ANALYZE " + sel)
		if err != nil {
			t.Fatalf("%s ANALYZE: %v", name, err)
		}
		if got := strings.Join(resultLines(t, res), "\n"); !strings.Contains(got, "merge-join") || !strings.Contains(got, "rows=") {
			t.Errorf("%s: EXPLAIN ANALYZE rows lack the operator tree:\n%s", name, got)
		}
	}
	for name, queryRows := range map[string]func(context.Context, string) (*Rows, error){
		"DB.QueryRows": db.QueryRows, "Session.QueryRows": sess.QueryRows,
	} {
		rows, err := queryRows(ctx, "EXPLAIN "+sel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			got = append(got, line)
		}
		rows.Close()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: EXPLAIN rows\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	if _, err := db.QueryNaive("EXPLAIN " + sel); !isCode(err, CodeParse) {
		t.Errorf("QueryNaive(EXPLAIN): %v, want a parse error", err)
	}
	if _, _, err := db.ExplainAnalyze("EXPLAIN " + sel); !isCode(err, CodeParse) {
		t.Errorf("ExplainAnalyze(EXPLAIN): %v, want a parse error", err)
	}
	if _, err := db.Query(`INSERT INTO S VALUES (3, 30)`); !isCode(err, CodeParse) {
		t.Errorf("Query(INSERT): %v, want a parse error", err)
	}
	if res, err := db.Query(`SELECT S.A FROM S`); err != nil || res.Len() != 2 {
		t.Errorf("after a refused INSERT, S has %v rows (err %v), want 2", res, err)
	}
}
