package plan

import (
	"strings"
	"testing"
)

// steps plans sql over the R(K, A, B), S(A, B), T(B, C) fixture in
// syntactic join order and returns the join's steps.
func steps(t *testing.T, sql string) []JoinStep {
	t.Helper()
	p := planFor(t, rstCatalog(), sql, Options{DisableJoinReorder: true})
	return p.Proj().Input.(*Join).Steps
}

func TestAssignEmitsFoldsOntoTheProjectedInput(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		emit string
		fold Fold
	}{
		// The projection reads the accumulated side only, or the joined
		// input only, or both.
		{`SELECT R.K FROM R, S WHERE R.A = S.A`, "R.K", FoldOuter},
		{`SELECT S.B FROM R, S WHERE R.A = S.A`, "S.B", FoldInner},
		{`SELECT R.K, S.B FROM R, S WHERE R.A = S.A`, "R.K, S.B", FoldNone},
		// Unnested type J: Query J' joins S to R and projects R.K.
		{`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`, "R.K", FoldOuter},
		// GROUPBY answers are fuzzy sets too: the step emits what the
		// grouping and the aggregate read.
		{`SELECT R.A, COUNT(R.K) FROM R, S WHERE R.B = S.B GROUPBY R.A`, "R.K, R.A", FoldOuter},
	} {
		st := steps(t, tc.sql)
		if len(st) != 1 {
			t.Fatalf("%s: %d steps", tc.sql, len(st))
		}
		if got := strings.Join(st[0].Emit, ", "); got != tc.emit || st[0].Fold != tc.fold {
			t.Errorf("%s: emit %q fold %v, want %q %v", tc.sql, got, st[0].Fold, tc.emit, tc.fold)
		}
	}
}

// A non-final step emits what later steps read (their merge attribute and
// extra conjuncts) plus what the projection reads of the relations joined
// so far, and folds when that comes from one input.
func TestAssignEmitsChainSteps(t *testing.T) {
	st := steps(t, `SELECT T.C FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND R.B < T.C`)
	if len(st) != 2 {
		t.Fatalf("%d steps", len(st))
	}
	// Step 0 (R ⋈ S): step 1 merges on S.B and its extra conjunct reads R.B.
	if got := strings.Join(st[0].Emit, ", "); got != "R.B, S.B" || st[0].Fold != FoldNone {
		t.Errorf("step 0: emit %q fold %v", got, st[0].Fold)
	}
	// Step 1 (… ⋈ T): only the projection is left, and it reads T.
	if got := strings.Join(st[1].Emit, ", "); got != "T.C" || st[1].Fold != FoldInner {
		t.Errorf("step 1: emit %q fold %v", got, st[1].Fold)
	}

	st = steps(t, `SELECT R.K FROM R, S, T WHERE R.A = S.A AND S.B = T.B`)
	if got := strings.Join(st[0].Emit, ", "); got != "R.K, S.B" || st[0].Fold != FoldNone {
		t.Errorf("step 0: emit %q fold %v", got, st[0].Fold)
	}
	if got := strings.Join(st[1].Emit, ", "); got != "R.K" || st[1].Fold != FoldOuter {
		t.Errorf("step 1: emit %q fold %v", got, st[1].Fold)
	}
}

// A whole-window step folds like a range step; a projection the planner
// cannot resolve leaves every step alone, for the executor to report.
func TestAssignEmitsLeavesAlone(t *testing.T) {
	st := steps(t, `SELECT R.K FROM R, S WHERE R.A < S.A`)
	if got := strings.Join(st[0].Emit, ", "); got != "R.K" || st[0].Fold != FoldOuter {
		t.Errorf("whole-window step: emit %q fold %v", got, st[0].Fold)
	}
	for _, sql := range []string{
		`SELECT R.NOPE FROM R, S WHERE R.A = S.A`,
		`SELECT A FROM R, S WHERE R.A = S.A`, // ambiguous
		`SELECT R.K, COUNT(R.A) FROM R, S WHERE R.A = S.A GROUPBY R.NOPE`,
	} {
		if st := steps(t, sql); st[0].Emit != nil || st[0].Fold != FoldNone {
			t.Errorf("%s: emit %v fold %v, want none", sql, st[0].Emit, st[0].Fold)
		}
	}
}

func TestFoldStringsAndRendering(t *testing.T) {
	if FoldNone.String() != "none" || FoldOuter.String() != "outer" || FoldInner.String() != "inner" {
		t.Errorf("fold names: %v %v %v", FoldNone, FoldOuter, FoldInner)
	}
	p := planFor(t, rstCatalog(), `SELECT R.K FROM R, S WHERE R.A = S.A`, Options{DisableJoinReorder: true})
	renderedContains(t, p, "-> R.K fold(outer)]")
}
