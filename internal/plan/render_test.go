package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// wantNaive asserts the plan fell back to the naive strategy for the
// given reason (substring match on Note).
func wantNaive(t *testing.T, p *Plan, reason string) {
	t.Helper()
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v (note %q), want naive", p.Strategy, p.Note)
	}
	if !strings.Contains(p.Note, reason) {
		t.Fatalf("note = %q, want it to mention %q", p.Note, reason)
	}
	if len(p.Rules) != 0 {
		t.Fatalf("naive plan reports rules %v", p.Rules)
	}
}

func TestStrategyStrings(t *testing.T) {
	cases := map[Strategy]string{
		StrategyFlat:         "flat",
		StrategyChain:        "chain-join",
		StrategyAntiJoin:     "jx-anti-join",
		StrategyGroupAgg:     "ja-group-aggregate-join",
		StrategyAllAnti:      "jall-anti-join",
		StrategyUncorrelated: "uncorrelated-subquery",
		StrategyNaive:        "naive-nested-loop",
		Strategy(99):         "Strategy(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestAntiModeStrings(t *testing.T) {
	cases := map[AntiMode]string{
		AntiNotIn:     "not-in",
		AntiAll:       "all",
		AntiNotExists: "not-exists",
		AntiMode(7):   "AntiMode(7)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestNodeInterfaces walks every IR node type through the Node interface:
// Kind is non-empty, Est is addressable, and Children returns the inputs
// wired in.
func TestNodeInterfaces(t *testing.T) {
	scan := &Scan{}
	nodes := []struct {
		nd       Node
		kind     string
		children int
	}{
		{scan, "scan", 0},
		{&Filter{Input: scan}, "filter", 1},
		{&Join{Inputs: []Node{scan, scan}}, "join", 2},
		{&Apply{Input: scan, Body: scan}, "apply", 2},
		{&AllQuantifier{Input: scan, Body: scan}, "all-quantifier", 2},
		{&AntiJoin{Outer: scan, Inner: scan}, "anti-join", 2},
		{&GroupAgg{Outer: scan, Inner: scan}, "group-agg-join", 2},
		{&UncorrSub{Outer: scan}, "uncorrelated-agg", 1},
		{&Project{Input: scan}, "project", 1},
		{&Threshold{Input: scan}, "threshold", 1},
	}
	for _, c := range nodes {
		if got := c.nd.Kind(); got != c.kind {
			t.Errorf("Kind() = %q, want %q", got, c.kind)
		}
		if got := len(c.nd.Children()); got != c.children {
			t.Errorf("%s: %d children, want %d", c.kind, got, c.children)
		}
		e := c.nd.Est()
		if e == nil {
			t.Fatalf("%s: nil Est", c.kind)
		}
		e.Rows = 7 // must be mutable
		if c.nd.Est().Rows != 7 {
			t.Errorf("%s: Est not addressable", c.kind)
		}
	}
}

func TestPredKindWords(t *testing.T) {
	cases := map[fsql.PredKind]string{
		fsql.PredIn:        "in",
		fsql.PredNotIn:     "not-in",
		fsql.PredQuant:     "quantifier",
		fsql.PredScalarSub: "scalar-subquery",
		fsql.PredExists:    "exists",
		fsql.PredNotExists: "not-exists",
		fsql.PredNear:      "near",
		fsql.PredCompare:   "compare",
	}
	for k, want := range cases {
		if got := predKindWord(fsql.Predicate{Kind: k}); got != want {
			t.Errorf("predKindWord(%d) = %q, want %q", int(k), got, want)
		}
	}
}

// renderedContains asserts every want string appears in the plan's
// rendered Lines.
func renderedContains(t *testing.T, p *Plan, wants ...string) {
	t.Helper()
	text := strings.Join(p.Lines(), "\n")
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("rendered plan missing %q:\n%s", w, text)
		}
	}
}

func TestRenderThresholdParts(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WITH D >= 0.5 ORDER BY D DESC LIMIT 3`, Options{})
	renderedContains(t, p, "threshold with>=0.5, order D desc, limit 3")
}

// TestRenderNaiveApplyTree exercises the apply-form rendering and the
// naive estimator: an outer GROUPBY forces the fallback, leaving the IN
// subquery as an Apply node and the projection grouped.
func TestRenderNaiveApplyTree(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.A FROM R WHERE R.B IN (SELECT S.B FROM S) GROUPBY R.A`, Options{})
	wantNaive(t, p, "GROUPBY")
	renderedContains(t, p, "apply in", "project group by R.A", "rules: (none)")
	if p.Root.Est().Cost <= 0 {
		t.Errorf("naive plan not costed: %+v", *p.Root.Est())
	}
}

// TestRenderNaiveAllQuantifier renders the ALL node kept in nested form.
func TestRenderNaiveAllQuantifier(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.A FROM R WHERE R.B > ALL (SELECT S.B FROM S) GROUPBY R.A`, Options{})
	wantNaive(t, p, "GROUPBY")
	renderedContains(t, p, "all-quantifier all")
}

func TestRenderAntiJoinMerge(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyAntiJoin {
		t.Fatalf("strategy = %v", p.Strategy)
	}
	renderedContains(t, p, "anti-join [not-in] merge R.B = S.B")
}

// TestRenderNotExistsNestedLoop: a NOT EXISTS whose only correlation is a
// non-equality comparison gets no merge range attribute, so the anti-join
// renders (and is costed) as a sweep of the whole inner.
func TestRenderNotExistsNestedLoop(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE S.B <= R.B)`, Options{})
	if p.Strategy != StrategyAntiJoin {
		t.Fatalf("strategy = %v (note %q)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestNotExists)
	aj, ok := p.Proj().Input.(*AntiJoin)
	if !ok {
		t.Fatalf("body = %T", p.Proj().Input)
	}
	if aj.RangeOuter != "" || aj.RangeInner != "" || aj.HasLink {
		t.Errorf("NOT EXISTS anti-join: range %q/%q HasLink=%v, want none", aj.RangeOuter, aj.RangeInner, aj.HasLink)
	}
	renderedContains(t, p, "anti-join [not-exists] merge all")
}

func TestRenderGroupAggAndUncorr(t *testing.T) {
	ja := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`, Options{})
	renderedContains(t, ja, "group-agg-join", "by R.A")
	un := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S)`, Options{})
	renderedContains(t, un, "uncorrelated-agg", "folded vs R.B")
}

// TestRenderJoinError: an unresolvable reference is recorded on the Join
// node and rendered, not raised at planning time.
func TestRenderJoinError(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE R.K = Q.Z`, Options{})
	j, ok := p.Proj().Input.(*Join)
	if !ok {
		t.Fatalf("body = %T", p.Proj().Input)
	}
	if j.Err == nil {
		t.Fatal("unresolvable reference did not set Join.Err")
	}
	renderedContains(t, p, `join error: core: cannot resolve reference "Q.Z"`)
}

// leafEst's non-Scan-input branch and its default arm are unreachable
// through Build (filters only ever wrap scans) but guard future rule
// changes; exercise them directly.
func TestLeafEstFallbacks(t *testing.T) {
	cat := rstCatalog()
	p := planFor(t, cat, `SELECT R.K FROM R`, Options{})
	scan := p.Proj().Input.(*Join).Inputs[0].(*Scan)
	inner := &Filter{Input: scan, Preds: []fsql.Predicate{{Kind: fsql.PredCompare}}}
	outer := &Filter{Input: inner, Preds: []fsql.Predicate{{Kind: fsql.PredCompare}}}
	rows := p.leafEst(outer)
	if rows <= 0 || rows >= 40 {
		t.Errorf("stacked-filter estimate = %g, want in (0, 40)", rows)
	}
	if got := p.leafEst(&Project{}); got != defaultRows {
		t.Errorf("leafEst(non-leaf) = %g, want defaultRows", got)
	}
}

// --- anti-join (JX/JALL/NOT EXISTS) fallback shapes ---

func TestAntiFallbacks(t *testing.T) {
	cases := []struct {
		sql, reason string
	}{
		{`SELECT R.K FROM R, T WHERE R.B NOT IN (SELECT S.B FROM S)`,
			"single-relation blocks"},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WITH D >= 0.5)`,
			"WITH threshold"},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S LIMIT 3)`,
			"ORDER BY/LIMIT"},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S GROUPBY S.B)`,
			"GROUPBY/HAVING"},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A IN (SELECT T.B FROM T))`,
			"subquery is itself nested"},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = X.Q)`,
			"cannot resolve"},
	}
	for _, c := range cases {
		p := planFor(t, rstCatalog(), c.sql, Options{})
		wantNaive(t, p, c.reason)
	}
}

// --- scalar-aggregate (JA) fallback shapes and NEAR folding ---

// strCatalog extends the standard fixture with W(G STRING, A NUMBER) for
// the non-numeric-correlation check.
func strCatalog() *testCatalog {
	w := frel.NewRelation(frel.NewSchema("W",
		frel.Attribute{Name: "G", Kind: frel.KindString},
		frel.Attribute{Name: "A", Kind: frel.KindNumber}))
	for i := 0; i < 5; i++ {
		w.Append(frel.NewTuple(1, frel.Str(fmt.Sprintf("g%d", i)), frel.Crisp(float64(i))))
	}
	c := rstCatalog()
	c.add(w)
	return c
}

func TestScalarAggFallbacks(t *testing.T) {
	cases := []struct {
		sql, reason string
	}{
		{`SELECT R.K FROM R, T WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
			"single-relation blocks"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S GROUPBY S.A)`,
			"GROUPBY/HAVING/WITH/ORDER/LIMIT"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.B IN (SELECT T.B FROM T))`,
			"itself nested"},
		{`SELECT R.K FROM R WHERE S.A >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
			"compared value is not an outer attribute"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A AND S.B = R.B)`,
			"exactly one correlation"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE R.B = 5)`,
			"must compare two attributes"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE R.A = R.B)`,
			"does not link inner and outer"},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.B NEAR R.A WITHIN 2)`,
			"NEAR correlation on the aggregated attribute"},
	}
	for _, c := range cases {
		p := planFor(t, strCatalog(), c.sql, Options{})
		wantNaive(t, p, c.reason)
	}
}

func TestScalarAggNonNumericCorrelation(t *testing.T) {
	p := planFor(t, strCatalog(), `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(W.A) FROM W WHERE W.G = R.K)`, Options{})
	wantNaive(t, p, "must be numeric")
}

// TestScalarAggNearFolds: a NEAR correlation folds into equality with the
// tolerance shifted onto the inner attribute, in both orientations.
func TestScalarAggNearFolds(t *testing.T) {
	for _, sql := range []string{
		`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A NEAR R.A WITHIN 2)`,
		`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE R.A NEAR S.A WITHIN 2)`,
	} {
		p := planFor(t, rstCatalog(), sql, Options{})
		if p.Strategy != StrategyGroupAgg {
			t.Fatalf("%s: strategy = %v (note %q)", sql, p.Strategy, p.Note)
		}
		g := p.Proj().Input.(*GroupAgg)
		if !g.IsNear || g.Op2 != fuzzy.OpEq {
			t.Errorf("%s: IsNear=%v Op2=%v, want folded equality", sql, g.IsNear, g.Op2)
		}
		if g.VRef != "S.A" || g.URef != "R.A" {
			t.Errorf("%s: correlation %s/%s, want S.A/R.A", sql, g.VRef, g.URef)
		}
	}
}

// TestScalarAggFlippedCorrelation: a correlation written outer-first
// normalizes by flipping the comparison operator.
func TestScalarAggFlippedCorrelation(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE R.A <= S.A)`, Options{})
	if p.Strategy != StrategyGroupAgg {
		t.Fatalf("strategy = %v (note %q)", p.Strategy, p.Note)
	}
	g := p.Proj().Input.(*GroupAgg)
	if g.VRef != "S.A" || g.URef != "R.A" {
		t.Errorf("correlation %s/%s, want S.A/R.A", g.VRef, g.URef)
	}
	if g.Op2 == fuzzy.OpLe {
		t.Error("correlation operator was not flipped when normalizing")
	}
}

// TestScalarSubqueryWithoutAggregate: a scalar subquery selecting a plain
// attribute is malformed (no evaluator could run it) and errors out of
// Rewrite instead of falling back.
func TestScalarSubqueryWithoutAggregate(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.B >= (SELECT S.B FROM S WHERE S.A = R.A)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, rstCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rewrite(); err == nil {
		t.Fatal("Rewrite accepted a scalar subquery without an aggregate")
	}
}
