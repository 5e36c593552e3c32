package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// datingEnv builds the Example 4.1 database: relations F and M of the
// dating service with the paper's linguistic terms.
func datingEnv() *Env {
	terms := catalog.PaperTerms()
	schema := func(name string) *frel.Schema {
		return frel.NewSchema(name,
			frel.Attribute{Name: "ID", Kind: frel.KindNumber},
			frel.Attribute{Name: "NAME", Kind: frel.KindString},
			frel.Attribute{Name: "AGE", Kind: frel.KindNumber},
			frel.Attribute{Name: "INCOME", Kind: frel.KindNumber},
		)
	}
	f := frel.NewRelation(schema("F"))
	f.Append(
		frel.NewTuple(1, frel.Crisp(101), frel.Str("Ann"), frel.Num(terms["about 35"]), frel.Num(terms["about 60k"])),
		frel.NewTuple(1, frel.Crisp(102), frel.Str("Ann"), frel.Num(terms["medium young"]), frel.Num(terms["medium high"])),
		frel.NewTuple(1, frel.Crisp(103), frel.Str("Betty"), frel.Num(terms["middle age"]), frel.Num(terms["high"])),
		frel.NewTuple(1, frel.Crisp(104), frel.Str("Cathy"), frel.Num(terms["about 50"]), frel.Num(terms["low"])),
	)
	m := frel.NewRelation(schema("M"))
	m.Append(
		frel.NewTuple(1, frel.Crisp(201), frel.Str("Allen"), frel.Crisp(24), frel.Num(terms["about 25k"])),
		frel.NewTuple(1, frel.Crisp(202), frel.Str("Allen"), frel.Num(terms["about 50"]), frel.Num(terms["about 40k"])),
		frel.NewTuple(1, frel.Crisp(203), frel.Str("Bill"), frel.Num(terms["middle age"]), frel.Num(terms["high"])),
		frel.NewTuple(1, frel.Crisp(204), frel.Str("Carl"), frel.Num(terms["about 29"]), frel.Num(terms["medium low"])),
	)
	e := memEnv(f, m)
	for name, t := range terms {
		if err := e.DefineTerm(name, t); err != nil {
			panic(err)
		}
	}
	return e
}

const query2 = `
	SELECT F.NAME
	FROM F
	WHERE F.AGE = 'medium young' AND
	      F.INCOME IN
	      (SELECT M.INCOME
	       FROM M
	       WHERE M.AGE = 'middle age')`

// wantAnswer checks a one-string-column relation against expected
// name → degree pairs.
func wantAnswer(t *testing.T, got *frel.Relation, want map[string]float64) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("answer has %d tuples, want %d: %v", got.Len(), len(want), got.Tuples)
	}
	for _, tup := range got.Tuples {
		name := tup.Values[0].Str
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected tuple %v", tup)
			continue
		}
		if math.Abs(tup.D-w) > 1e-9 {
			t.Errorf("%s degree = %g, want %g", name, tup.D, w)
		}
	}
}

// TestNaiveExample41 reproduces the paper's Example 4.1: the answer to
// Query 2 is {Ann: 0.7, Betty: 0.7}.
func TestNaiveExample41(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(query2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswer(t, got, map[string]float64{"Ann": 0.7, "Betty": 0.7})
}

// TestNaiveExample41InnerBlock checks the temporary relation T of
// Example 4.1: {about 40K: 0.4, high: 1}.
func TestNaiveExample41InnerBlock(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(`SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	terms := catalog.PaperTerms()
	if got.Len() != 2 {
		t.Fatalf("T has %d tuples, want 2: %v", got.Len(), got.Tuples)
	}
	for _, tup := range got.Tuples {
		switch tup.Values[0].Num {
		case terms["about 40k"]:
			if math.Abs(tup.D-0.4) > 1e-9 {
				t.Errorf("about 40K degree = %g, want 0.4", tup.D)
			}
		case terms["high"]:
			if tup.D != 1 {
				t.Errorf("high degree = %g, want 1", tup.D)
			}
		default:
			t.Errorf("unexpected value %v", tup)
		}
	}
}

// TestNaiveQuery1 evaluates the flat Query 1 of Section 2.2 and checks the
// degree formula d = min(µF, µM, d(AGE=AGE), d(INCOME > medium high)).
func TestNaiveQuery1(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(`
		SELECT F.NAME, M.NAME
		FROM F, M
		WHERE F.AGE = M.AGE AND M.INCOME > 'medium high'`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	terms := catalog.PaperTerms()
	// Only Bill (INCOME high) passes INCOME > medium high with degree 1.
	// Pairs: degrees are d(F.AGE = middle age).
	want := map[string]float64{
		"Ann":   fuzzy.Eq(terms["medium young"], terms["middle age"]), // via F.102 (0.7); F.101 about35 ∩ middle age smaller? both dedup to max
		"Betty": 1,
		"Cathy": fuzzy.Eq(terms["about 50"], terms["middle age"]),
	}
	// Ann appears via both 101 (about 35) and 102 (medium young); dedup
	// keeps the max.
	if d := fuzzy.Eq(terms["about 35"], terms["middle age"]); d > want["Ann"] {
		want["Ann"] = d
	}
	if got.Len() != len(want) {
		t.Fatalf("answer = %v", got.Tuples)
	}
	for _, tup := range got.Tuples {
		name := tup.Values[0].Str
		if tup.Values[1].Str != "Bill" {
			t.Errorf("male of %v should be Bill", tup)
		}
		if math.Abs(tup.D-want[name]) > 1e-9 {
			t.Errorf("%s degree = %g, want %g", name, tup.D, want[name])
		}
	}
}

func TestNaiveWithThreshold(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(query2 + " WITH D >= 0.71")
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("thresholded answer = %v, want empty", got.Tuples)
	}
}

func TestNaiveErrors(t *testing.T) {
	e := datingEnv()
	bad := []string{
		`SELECT F.NAME FROM NOPE`,
		`SELECT F.NOPE FROM F`,
		`SELECT F.NAME FROM F WHERE F.AGE = 'no such term'`,
		`SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME, M.AGE FROM M)`,
		`SELECT F.NAME FROM F WHERE F.INCOME > (SELECT M.INCOME FROM M)`,
		`SELECT F.NAME FROM F HAVING F.NAME = 'Ann'`,
		`SELECT F.NAME, COUNT(F.ID) FROM F`,
	}
	for _, src := range bad {
		q, err := fsql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := e.EvalNaive(context.Background(), q, nil); err == nil {
			t.Errorf("EvalNaive(%q): want error", src)
		}
	}
}

func TestNaiveGroupBy(t *testing.T) {
	e := datingEnv()
	q, err := fsql.ParseQuery(`SELECT F.NAME, COUNT(F.ID) FROM F GROUPBY F.NAME`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Ann": 2, "Betty": 1, "Cathy": 1}
	if got.Len() != len(want) {
		t.Fatalf("groups = %v", got.Tuples)
	}
	for _, tup := range got.Tuples {
		if c := tup.Values[1].Num.A; c != want[tup.Values[0].Str] {
			t.Errorf("COUNT(%s) = %g, want %g", tup.Values[0].Str, c, want[tup.Values[0].Str])
		}
	}
}

func TestNaiveStringIn(t *testing.T) {
	// IN over a string attribute (names), exercising generic value sets.
	e := datingEnv()
	q, err := fsql.ParseQuery(`SELECT F.ID FROM F WHERE F.NAME IN (SELECT M.NAME FROM M)`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("no female name matches a male name; got %v", got.Tuples)
	}
}
