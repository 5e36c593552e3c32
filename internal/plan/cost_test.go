package plan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fsql"
)

func TestFilterSelectivityFromDistinct(t *testing.T) {
	// R.A takes 8 distinct values over 40 rows; the equality filter
	// should keep 1/8 of them.
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R WHERE R.A = 3`, Options{})
	f, ok := p.Proj().Input.(*Join).Inputs[0].(*Filter)
	if !ok {
		t.Fatalf("input is %T, want a pushed-down filter", p.Proj().Input.(*Join).Inputs[0])
	}
	if got, want := f.Est().Rows, 5.0; math.Abs(got-want) > 0.5 {
		t.Errorf("filter rows = %g, want about %g", got, want)
	}
}

func TestScanCardinalityFromStats(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R`, Options{})
	sc := p.Proj().Input.(*Join).Inputs[0].(*Scan)
	if sc.Est().Rows != 40 {
		t.Errorf("scan rows = %g, want 40 (from statistics)", sc.Est().Rows)
	}
}

func TestScanCardinalityWithoutStats(t *testing.T) {
	cat := rstCatalog()
	cat.noStats = true
	p := planFor(t, cat, `SELECT R.K FROM R`, Options{})
	sc := p.Proj().Input.(*Join).Inputs[0].(*Scan)
	if sc.Est().Rows != defaultRows {
		t.Errorf("scan rows = %g, want the %g fallback", sc.Est().Rows, defaultRows)
	}
}

func TestMergeJoinChosenForEquality(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE R.A = S.A`, Options{})
	j := p.Proj().Input.(*Join)
	if len(j.Steps) != 1 {
		t.Fatalf("steps = %v", j.Steps)
	}
	st := j.Steps[0]
	if st.MergePred < 0 {
		t.Fatal("equality join step did not take its range window")
	}
	if st.LeftAttr == "" || st.RightAttr == "" {
		t.Errorf("merge attrs = %q/%q", st.LeftAttr, st.RightAttr)
	}
	if st.Fanout <= 0 {
		t.Errorf("fanout = %g, want positive statistics-backed estimate", st.Fanout)
	}
}

// TestNestedLoopForNonEquality: a non-equality predicate has no range, so
// its step sweeps the whole inner with the predicate as an extra conjunct.
func TestNestedLoopForNonEquality(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE R.A < S.A`, Options{})
	j := p.Proj().Input.(*Join)
	st := j.Steps[0]
	if st.MergePred >= 0 || st.LeftAttr != "" || st.RightAttr != "" {
		t.Fatalf("non-equality predicate took a range window: %+v", st)
	}
	if len(st.Extras) != 1 {
		t.Errorf("extras = %v, want the < predicate", st.Extras)
	}
	renderedContains(t, p, "[merge-join all")

	// A numeric equality always takes its range, even where the whole
	// window is estimated cheaper: one outer row against 10 000 inner
	// rows, where the sorts cost more than 10 000 degree evaluations.
	p = planFor(t, newTestCatalog(
		numRel("R", 1, []string{"K", "A"}, []int{1, 1}),
		numRel("S", 10000, []string{"A"}, []int{100}),
	), `SELECT R.K FROM R, S WHERE R.A = S.A`, Options{DisableJoinReorder: true})
	st = p.Proj().Input.(*Join).Steps[0]
	if st.MergePred < 0 || st.LeftAttr != "R.A" || st.RightAttr != "S.A" {
		t.Fatalf("1 x 10 000 numeric equality: step %+v, want the range R.A = S.A", st)
	}
}

func TestJoinOrderAvoidsCrossProduct(t *testing.T) {
	// FROM R, T, S with edges R-S and T-S: the syntactic order starts
	// with the cross product R x T; the DP must place S second.
	cat := rstCatalog()
	sql := `SELECT R.K FROM R, T, S WHERE R.A = S.A AND T.B = S.B`
	p := planFor(t, cat, sql, Options{})
	j := p.Proj().Input.(*Join)
	if len(j.Order) != 3 {
		t.Fatalf("order = %v", j.Order)
	}
	// Relation indexes follow FROM order: R=0, T=1, S=2.
	if j.Order[0] != 2 && j.Order[1] != 2 {
		t.Errorf("order %v joins R and T before S (cross product)", j.Order)
	}

	// The ablation switch must keep the syntactic order.
	p = planFor(t, cat, sql, Options{DisableJoinReorder: true})
	j = p.Proj().Input.(*Join)
	for i, want := range []int{0, 1, 2} {
		if j.Order[i] != want {
			t.Fatalf("DisableJoinReorder order = %v, want [0 1 2]", j.Order)
		}
	}
}

func TestNaiveCostDominatesUnnested(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	if p.NaiveCost <= p.Root.Est().Cost {
		t.Errorf("naive cost %g not above plan cost %g", p.NaiveCost, p.Root.Est().Cost)
	}
}

func TestNaiveStrategyStillEstimated(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT COUNT(R.K) FROM R WHERE R.B IN (SELECT S.B FROM S)`, Options{})
	if p.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v", p.Strategy)
	}
	if p.Root.Est().Cost <= 0 {
		t.Errorf("naive tree cost = %g, want positive", p.Root.Est().Cost)
	}
}

func TestJoinErrSurfacedAtEstimate(t *testing.T) {
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE R.Q = S.A`, Options{})
	j := p.Proj().Input.(*Join)
	if j.Err == nil || !strings.Contains(j.Err.Error(), "cannot resolve") {
		t.Errorf("join err = %v, want an unresolvable-reference error", j.Err)
	}
}

func TestAmbiguousReferenceRejected(t *testing.T) {
	// Unqualified B resolves in both R and S.
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE B = 1`, Options{})
	j := p.Proj().Input.(*Join)
	if j.Err == nil || !strings.Contains(j.Err.Error(), "ambiguous") {
		t.Errorf("join err = %v, want an ambiguity error", j.Err)
	}
}

func TestAntiJoinEstimates(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	a := p.Proj().Input.(*AntiJoin)
	// The anti-join keeps every outer tuple (inner matches only lower
	// their degrees).
	if a.Est().Rows != 40 {
		t.Errorf("anti-join rows = %g, want 40", a.Est().Rows)
	}
	if a.Est().Cost <= 0 {
		t.Errorf("anti-join cost = %g", a.Est().Cost)
	}
}

func TestEdgeFanoutCrispColumns(t *testing.T) {
	cat := rstCatalog()
	q, err := fsql.ParseQuery(`SELECT R.K FROM R, S WHERE R.A = S.A`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rewrite(); err != nil {
		t.Fatal(err)
	}
	p.Estimate(Options{})
	j := p.Proj().Input.(*Join)
	// Crisp equi-join estimate: sel = 1/max(distinct) = 1/8, fanout =
	// sel * max(rows) = 40/8 = 5.
	if got := j.Steps[0].Fanout; math.Abs(got-5) > 0.5 {
		t.Errorf("fanout = %g, want about 5", got)
	}
}

func TestLinesRendering(t *testing.T) {
	p := planFor(t, rstCatalog(),
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`, Options{})
	out := strings.Join(p.Lines(), "\n")
	for _, want := range []string{"rules: unnest-in", "cost:", "threshold", "project", "join", "scan R", "scan S"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, out)
		}
	}
	// Deterministic rendering: two renders agree line for line.
	again := strings.Join(p.Lines(), "\n")
	if out != again {
		t.Error("plan rendering is not deterministic")
	}
}
