package fuzzydb

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestExplainAnalyze runs the paper's query 2 with statistics collection
// through the public API and checks the stats contract: strategy, answer
// accounting, a populated plan tree, and JSON/String rendering.
func TestExplainAnalyze(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(datingData); err != nil {
		t.Fatal(err)
	}
	res, stats, err := db.ExplainAnalyze(query2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("Len = %d, want 2", res.Len())
	}
	if stats == nil {
		t.Fatal("nil stats")
	}
	if res.Stats() != stats {
		t.Fatal("Result.Stats() does not return the collected stats")
	}
	if stats.Strategy != "chain-join" {
		t.Errorf("Strategy = %q, want chain-join", stats.Strategy)
	}
	if stats.Answer != res.Len() {
		t.Errorf("Answer = %d, want %d", stats.Answer, res.Len())
	}
	if stats.Wall() <= 0 {
		t.Errorf("Wall = %v, want > 0", stats.Wall())
	}
	if stats.Plan == nil {
		t.Fatal("nil plan tree")
	}
	rows, cmp, _ := stats.Plan.Totals()
	if rows == 0 || cmp == 0 {
		t.Errorf("zero plan totals: rows=%d cmp=%d", rows, cmp)
	}

	s := stats.String()
	for _, want := range []string{"strategy: chain-join", "answer: 2 tuples", "merge-join"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}

	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"strategy"`, `"wall_ns"`, `"answer_rows"`, `"plan"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s: %s", key, b)
		}
	}
}

// TestQueryHasNoStats checks plain queries do not carry a stats payload.
func TestQueryHasNoStats(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE R (X NUMBER); INSERT INTO R VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT R.X FROM R`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats() != nil {
		t.Fatal("plain Query attached stats")
	}
}

// TestExplainAnalyzeParseError checks error propagation.
func TestExplainAnalyzeParseError(t *testing.T) {
	db := openTemp(t)
	if _, _, err := db.ExplainAnalyze(`SELECT FROM`); err == nil {
		t.Fatal("no error for malformed query")
	}
}

// TestStatsStringMatchesPlanRows: QueryStats.String() renders the same
// text as the PLAN rows of Query("EXPLAIN ANALYZE ..."), rules line
// included: the same header lines and as many lines. Times differ between
// the two runs, so only the strategy and rules lines are compared whole.
func TestStatsStringMatchesPlanRows(t *testing.T) {
	db := planDB(t)
	sql := `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`
	_, stats, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Rules) != 1 || stats.Rules[0] != "unnest-in" {
		t.Errorf("Rules = %v, want [unnest-in]", stats.Rules)
	}
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"rules":["unnest-in"]`) {
		t.Errorf("JSON lacks the rules: %s", b)
	}
	res, err := db.Query("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	text := stats.String()
	if !strings.HasSuffix(text, "\n") {
		t.Errorf("String() does not end its last line:\n%s", text)
	}
	got := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(got) != res.Len() {
		t.Fatalf("String() has %d lines, the PLAN rows %d:\n%s\n%s", len(got), res.Len(), text, res)
	}
	for i := range 2 {
		if want := res.Row(i)[0]; got[i] != want {
			t.Errorf("String() line %d = %q, PLAN row %q", i, got[i], want)
		}
	}
	if !strings.HasPrefix(got[1], "rules: ") {
		t.Errorf("String() line 1 = %q, want the rules line", got[1])
	}
}
