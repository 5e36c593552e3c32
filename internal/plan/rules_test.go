package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// testCatalog implements Catalog over fixed schemas and statistics, the
// same way core.Env does over catalog heaps but without the evaluation
// machinery, so every rewrite rule and cost path is testable in isolation.
type testCatalog struct {
	schemas map[string]*frel.Schema
	stats   map[string]*frel.TableStats
	noStats bool
}

func newTestCatalog(rels ...*frel.Relation) *testCatalog {
	c := &testCatalog{schemas: map[string]*frel.Schema{}, stats: map[string]*frel.TableStats{}}
	for _, r := range rels {
		c.add(r)
	}
	return c
}

// add registers r under its schema name with the statistics a heap file
// loaded with its tuples keeps.
func (c *testCatalog) add(r *frel.Relation) {
	ts := frel.NewTableStats(len(r.Schema.Attrs))
	ts.ObserveAll(r.Tuples)
	c.schemas[r.Schema.Name], c.stats[r.Schema.Name] = r.Schema, ts
}

func (c *testCatalog) BoundSchema(tr fsql.TableRef) (*frel.Schema, error) {
	s, ok := c.schemas[strings.ToUpper(tr.Name)]
	if !ok {
		return nil, fmt.Errorf("plan test: unknown relation %q", tr.Name)
	}
	if b := strings.ToUpper(tr.Binding()); b != "" && b != s.Name {
		return s.WithName(b), nil
	}
	return s, nil
}

func (c *testCatalog) RelStats(tr fsql.TableRef) (*frel.TableStats, error) {
	if c.noStats {
		return nil, fmt.Errorf("plan test: statistics unavailable")
	}
	ts, ok := c.stats[strings.ToUpper(tr.Name)]
	if !ok {
		return nil, fmt.Errorf("plan test: unknown relation %q", tr.Name)
	}
	return ts, nil
}

// numRel builds a relation of crisp numeric columns; column j of row i
// holds i mod mods[j], so cardinalities and distinct counts are exact.
func numRel(name string, rows int, attrs []string, mods []int) *frel.Relation {
	as := make([]frel.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = frel.Attribute{Name: a, Kind: frel.KindNumber}
	}
	r := frel.NewRelation(frel.NewSchema(name, as...))
	for i := 0; i < rows; i++ {
		vals := make([]frel.Value, len(attrs))
		for j := range attrs {
			vals[j] = frel.Crisp(float64(i % mods[j]))
		}
		r.Append(frel.NewTuple(1, vals...))
	}
	return r
}

// rstCatalog is the standard three-relation fixture: R(K, A, B),
// S(A, B), T(B, C), all crisp numeric.
func rstCatalog() *testCatalog {
	return newTestCatalog(
		numRel("R", 40, []string{"K", "A", "B"}, []int{40, 8, 20}),
		numRel("S", 30, []string{"A", "B"}, []int{8, 15}),
		numRel("T", 20, []string{"B", "C"}, []int{20, 5}),
	)
}

// planFor runs the full three-stage planner over sql.
func planFor(t *testing.T, cat Catalog, sql string, opts Options) *Plan {
	t.Helper()
	q, err := fsql.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	if err := p.Rewrite(); err != nil {
		t.Fatalf("Rewrite(%q): %v", sql, err)
	}
	p.Estimate(opts)
	return p
}

func wantRules(t *testing.T, p *Plan, rules ...string) {
	t.Helper()
	if len(p.Rules) != len(rules) {
		t.Fatalf("rules = %v, want %v", p.Rules, rules)
	}
	for i, r := range rules {
		if p.Rules[i] != r {
			t.Fatalf("rules = %v, want %v", p.Rules, rules)
		}
	}
}

func TestBuildNestedForm(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, rstCatalog())
	if err != nil {
		t.Fatal(err)
	}
	ap, ok := p.Proj().Input.(*Apply)
	if !ok {
		t.Fatalf("body = %T, want *Apply", p.Proj().Input)
	}
	if ap.Pred.Kind != fsql.PredIn {
		t.Errorf("apply pred kind = %v", ap.Pred.Kind)
	}
	if j, ok := ap.Input.(*Join); !ok || len(j.Inputs) != 1 {
		t.Errorf("apply input = %#v, want 1-scan join", ap.Input)
	}
	if j, ok := ap.Body.(*Join); !ok || len(j.Inputs) != 1 {
		t.Errorf("apply body = %#v, want 1-scan join", ap.Body)
	}
}

func TestBuildUnknownRelation(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT X.A FROM X`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(q, rstCatalog()); err == nil {
		t.Fatal("Build of unknown relation succeeded")
	}
}

func TestRuleUnnestInTypeN(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`, Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestIn)
	j := p.Proj().Input.(*Join)
	if len(j.Inputs) != 2 {
		t.Fatalf("join has %d inputs, want 2", len(j.Inputs))
	}
	if len(j.PairPreds) != 1 {
		t.Fatalf("join preds = %v, want the linking equality", j.PairPreds)
	}
}

func TestRuleUnnestInTypeJ(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestIn)
	j := p.Proj().Input.(*Join)
	// Linking equality R.B = S.B plus the correlation S.A = R.A.
	if len(j.PairPreds) != 2 {
		t.Fatalf("join preds = %v, want linking + correlation", j.PairPreds)
	}
}

func TestRuleUnnestAny(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B > ANY (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestAny)
	// The linking predicate carries the quantifier's comparison operator.
	j := p.Proj().Input.(*Join)
	found := false
	for _, h := range j.PairPreds {
		if h.Pred.Op == fuzzy.OpGt {
			found = true
		}
	}
	if !found {
		t.Errorf("no > linking predicate in %v", j.PairPreds)
	}
}

func TestRuleUnnestExists(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestExists)
	// EXISTS adds no linking predicate: the correlation alone joins.
	j := p.Proj().Input.(*Join)
	if len(j.PairPreds) != 1 {
		t.Fatalf("join preds = %v, want the correlation only", j.PairPreds)
	}
}

func TestRuleUnnestNotIn(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyAntiJoin {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestNotIn)
	a := p.Proj().Input.(*AntiJoin)
	if a.Mode != AntiNotIn || !a.HasLink {
		t.Errorf("mode = %v hasLink = %v", a.Mode, a.HasLink)
	}
	if a.RangeOuter == "" {
		t.Error("linking equality should provide the merge range")
	}
	if len(a.Corr) != 1 {
		t.Errorf("correlations = %v", a.Corr)
	}
}

func TestRuleUnnestAll(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyAllAnti {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestAll)
	a := p.Proj().Input.(*AntiJoin)
	if a.Mode != AntiAll || !a.HasLink {
		t.Errorf("mode = %v hasLink = %v", a.Mode, a.HasLink)
	}
	if a.Link.Op != fuzzy.OpGt {
		t.Errorf("link op = %v, want >", a.Link.Op)
	}
	// The equality correlation, not the > link, is the merge range.
	if a.RangeOuter != "R.A" || a.RangeInner != "S.A" {
		t.Errorf("range = %q/%q", a.RangeOuter, a.RangeInner)
	}
}

func TestRuleUnnestNotExists(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE NOT EXISTS (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyAntiJoin {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestNotExists)
	a := p.Proj().Input.(*AntiJoin)
	if a.Mode != AntiNotExists || a.HasLink {
		t.Errorf("mode = %v hasLink = %v", a.Mode, a.HasLink)
	}
}

func TestRuleUnnestScalarAgg(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyGroupAgg {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestScalarAgg)
	g := p.Proj().Input.(*GroupAgg)
	if g.URef != "R.A" || g.VRef != "S.A" || g.Agg != fuzzy.AggAvg {
		t.Errorf("group-agg = %+v", g)
	}
}

func TestRuleUnnestScalarAggCount(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`, Options{})
	if p.Strategy != StrategyGroupAgg {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	if !strings.Contains(p.Note, "COUNT") {
		t.Errorf("note = %q, want the COUNT' variant", p.Note)
	}
}

func TestRuleFoldUncorrelated(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S)`, Options{})
	if p.Strategy != StrategyUncorrelated {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleFoldUncorrelated)
	u := p.Proj().Input.(*UncorrSub)
	if u.Agg != fuzzy.AggAvg || u.YRef != "R.B" {
		t.Errorf("uncorr = %+v", u)
	}
}

func TestChainThreeLevels(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN
		   (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN
		     (SELECT T.B FROM T WHERE T.C = S.A))`, Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestIn, RuleUnnestIn)
	j := p.Proj().Input.(*Join)
	if len(j.Inputs) != 3 {
		t.Fatalf("flattened join has %d inputs, want 3", len(j.Inputs))
	}
	if len(j.Order) != 3 || len(j.Steps) != 2 {
		t.Fatalf("order %v steps %d", j.Order, len(j.Steps))
	}
}

func TestMultipleSubqueriesFlatten(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S) AND EXISTS (SELECT T.B FROM T WHERE T.B = R.B)`,
		Options{})
	if p.Strategy != StrategyChain {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	wantRules(t, p, RuleUnnestIn, RuleUnnestExists)
}

func TestNaiveFallbackAggregateOuter(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT COUNT(R.K) FROM R WHERE R.B IN (SELECT S.B FROM S)`, Options{})
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	if len(p.Rules) != 0 {
		t.Errorf("naive fallback recorded rules %v", p.Rules)
	}
	if p.Note == "" {
		t.Error("naive fallback has no reason")
	}
}

func TestNaiveFallbackReusedBinding(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT R.B FROM R)`, Options{})
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	if !strings.Contains(p.Note, "reused") {
		t.Errorf("note = %q, want a reused-binding reason", p.Note)
	}
}

func TestNaiveFallbackMultiRelationAnti(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R, T WHERE R.B NOT IN (SELECT S.B FROM S)`, Options{})
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	if !strings.Contains(p.Note, "single-relation") {
		t.Errorf("note = %q", p.Note)
	}
}

func TestNaiveFallbackSubqueryShape(t *testing.T) {
	// An inner ORDER BY/LIMIT changes the subquery's answer set, so no
	// rewrite may fire.
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S ORDER BY D DESC LIMIT 2)`, Options{})
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
}

func TestFlatQueryNoRules(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.A = 3`, Options{})
	if p.Strategy != StrategyFlat {
		t.Fatalf("strategy = %v (%s)", p.Strategy, p.Note)
	}
	if len(p.Rules) != 0 {
		t.Errorf("flat query applied rules %v", p.Rules)
	}
}

func TestShapeOnThresholdNode(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WITH D >= 0.5 ORDER BY D DESC LIMIT 3`, Options{})
	s := p.Root.Shape
	if s.With != (frel.Cut{Z: 0.5}) || s.OrderBy != "D" || !s.OrderDesc || !s.HasLimit || s.Limit != 3 {
		t.Errorf("shape = %+v", s)
	}
}

// TestPushThreshold: the push-threshold rule floors every join step, the
// anti-join and the group-aggregate join of a plain block under WITH, is
// listed once among the rules and labelled in EXPLAIN, and keeps out of
// blocks without a threshold, with grouping or aggregate items, and of
// plans with no operator to floor.
func TestPushThreshold(t *testing.T) {
	cut := frel.Cut{Z: 0.5}
	for _, tc := range []struct {
		sql    string
		floors bool
	}{
		{`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A) WITH D >= 0.5`, true},
		{`SELECT R.K FROM R, T, S WHERE R.A = S.A AND T.B = S.B WITH D >= 0.5`, true},
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A) WITH D >= 0.5`, true},
		{`SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A) WITH D >= 0.5`, true},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A) WITH D >= 0.5`, true},
		{`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`, false},
		{`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A) WITH D > 0`, false},
		{`SELECT R.A, COUNT(R.K) FROM R, S WHERE R.A = S.A GROUPBY R.A WITH D >= 0.5`, false},
		{`SELECT R.A FROM R, S WHERE R.A = S.A GROUPBY R.A HAVING R.A > 1 WITH D >= 0.5`, false},
		{`SELECT MAX(R.K) FROM R, S WHERE R.A = S.A WITH D >= 0.5`, false},
		{`SELECT R.K FROM R WHERE R.A = 3 WITH D >= 0.5`, false},
		{`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S) WITH D >= 0.5`, false},
	} {
		p := planFor(t, rstCatalog(), tc.sql, Options{})
		var got []frel.Cut
		switch body := p.Proj().Input.(type) {
		case *Join:
			for _, st := range body.Steps {
				got = append(got, st.Floor)
			}
		case *AntiJoin:
			got = append(got, body.Floor)
		case *GroupAgg:
			got = append(got, body.Floor)
		}
		listed := countRule(p, RulePushThreshold)
		text := strings.Join(p.Lines(), "\n")
		if !tc.floors {
			for _, c := range got {
				if c != (frel.Cut{}) {
					t.Errorf("%s: floor %v pushed", tc.sql, c)
				}
			}
			if listed != 0 || strings.Contains(text, "floor(") {
				t.Errorf("%s: rule listed %d times, EXPLAIN:\n%s", tc.sql, listed, text)
			}
			continue
		}
		if len(got) == 0 {
			t.Fatalf("%s: no operator to floor", tc.sql)
		}
		for _, c := range got {
			if c != cut {
				t.Errorf("%s: floor %v, want %v", tc.sql, c, cut)
			}
		}
		if listed != 1 || strings.Count(text, "floor(0.5)") != len(got) {
			t.Errorf("%s: rule listed %d times, EXPLAIN:\n%s", tc.sql, listed, text)
		}
	}
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A) WITH D > 0.5`, Options{})
	if a := p.Proj().Input.(*AntiJoin); a.Floor != (frel.Cut{Z: 0.5, Strict: true}) {
		t.Errorf("strict floor = %v", a.Floor)
	}
	if text := strings.Join(p.Lines(), "\n"); !strings.Contains(text, "floor(>0.5)") || !strings.Contains(text, "with>0.5") {
		t.Errorf("strict cut EXPLAIN:\n%s", text)
	}
}

// countRule counts the entries of rule in the plan's rule list.
func countRule(p *Plan, rule string) int {
	n := 0
	for _, r := range p.Rules {
		if r == rule {
			n++
		}
	}
	return n
}
