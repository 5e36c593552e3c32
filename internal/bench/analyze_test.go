package bench

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestAnalyzePairRngBound reproduces the paper's central efficiency claim
// (Section 3) as a regression test on the EXPERIMENTS.md workload: the
// extended merge-join touches, per outer tuple, only the inner tuples
// whose supports intersect — so the Rng(r) scan lengths reported by
// EXPLAIN ANALYZE must be strictly smaller than the inner relation's
// cardinality, while the naive nested-loop method rescans all of it. The
// merge-join method's report names the rewrite rule it applied.
func TestAnalyzePairRngBound(t *testing.T) {
	const nOuter, nInner = 250, 250
	cfg := Config{ScaleDiv: 32, Verify: true, Seed: 1}
	rep, err := cfg.AnalyzePair(nOuter, nInner)
	if err != nil {
		t.Fatal(err)
	}

	merged := rep.Methods[MergeJoin.String()]
	if merged == nil || merged.Plan == nil {
		t.Fatalf("no merge-join method stats in report: %+v", rep.Methods)
	}
	// The report carries the planner's rules, in JSON too (fuzzybench
	// -json prints it).
	if !slices.Contains(merged.Rules, "unnest-in") {
		t.Errorf("merge-join method rules %v, want unnest-in among them", merged.Rules)
	}
	if b, err := json.Marshal(merged); err != nil || !strings.Contains(string(b), `"rules":[`) || !strings.Contains(string(b), `"unnest-in"`) {
		t.Errorf("merge-join method JSON has no rules naming unnest-in (err %v)", err)
	}
	mj := merged.Plan.Find("merge-join")
	if mj == nil {
		t.Fatalf("no merge-join node in plan:\n%s", merged.Plan.Render())
	}
	if mj.RngCount != nOuter {
		t.Errorf("RngCount = %d, want one Rng(r) observation per outer tuple (%d)", mj.RngCount, nOuter)
	}
	if mj.RngMax <= 0 || mj.RngMax >= nInner {
		t.Errorf("RngMax = %d, want 0 < RngMax < inner cardinality %d", mj.RngMax, nInner)
	}
	if mj.RngAvg <= 0 || mj.RngAvg >= float64(nInner) {
		t.Errorf("RngAvg = %g, want 0 < RngAvg < inner cardinality %d", mj.RngAvg, nInner)
	}
	// For the extended merge-join, comparisons are exactly the summed
	// Rng(r) window lengths.
	if sum := int64(mj.RngAvg*float64(mj.RngCount) + 0.5); mj.Comparisons != sum {
		t.Errorf("Comparisons = %d, want sum of Rng lengths %d", mj.Comparisons, sum)
	}

	naive := rep.Methods[NestedLoop.String()]
	if naive == nil || naive.Plan == nil {
		t.Fatalf("no nested-loop method stats in report: %+v", rep.Methods)
	}
	if naive.Answer != merged.Answer {
		t.Errorf("methods disagree on answer size: naive %d vs merged %d", naive.Answer, merged.Answer)
	}
	// The efficiency gap itself: the naive method evaluates a membership
	// degree for every outer × inner pair, far above the merge-join's
	// Rng-bounded total across its whole plan.
	_, _, mergedDeg := merged.Plan.Totals()
	if naive.Plan.DegreeEvals <= mergedDeg {
		t.Errorf("naive degree evaluations %d not above merge-join total %d",
			naive.Plan.DegreeEvals, mergedDeg)
	}
}
