package workload

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
)

// plannerQueries are multi-relation queries whose evaluation order the
// cost model is free to choose: three-way flat joins (including one
// written in a cross-product-first syntactic order) and a three-level
// chain that flattens to a three-way join (Theorem 8.1).
var plannerQueries = []string{
	`SELECT R.K FROM R, T, S WHERE R.A = S.A AND T.B = S.B`,
	`SELECT R.K FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND R.K <= T.K`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN (SELECT T.B FROM T WHERE T.A = S.A))`,
}

// plannerRel draws one seeded workload relation.
func plannerRel(t *testing.T, rng *rand.Rand, name string) *frel.Relation {
	t.Helper()
	r, err := Generate(Params{
		Name:       name,
		Tuples:     8 + rng.Intn(20),
		TupleBytes: baseTupleBytes,
		Fanout:     []int{1, 2, 4}[rng.Intn(3)],
		Width:      2 + 5*rng.Float64(),
		Jitter:     rng.Float64(),
		Seed:       rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	degradeDegrees(rng, r)
	return r
}

// TestJoinOrderInvariance is the planner-seeded leg of the differential
// harness: the cost-based join-order choice must never change the answer.
// Every seeded case is evaluated three ways — cost-chosen order,
// syntactic order (DisableJoinReorder), and the naive nested evaluation —
// and all three must return the same tuples with the same degrees.
func TestJoinOrderInvariance(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	ordersDiffer := 0
	for qi, src := range plannerQueries {
		q, err := fsql.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(qi*100000 + seed)))
			rels := map[string]*frel.Relation{
				"R": plannerRel(t, rng, "R"),
				"S": plannerRel(t, rng, "S"),
				"T": plannerRel(t, rng, "T"),
			}
			newEnv := func(disableReorder bool) *core.Env {
				env := memEnv(t, rels["R"], rels["S"], rels["T"])
				env.DisableJoinReorder = disableReorder
				return env
			}

			costEnv, synEnv := newEnv(false), newEnv(true)
			if diff, err := plannedOrdersDiffer(costEnv, synEnv, q); err != nil {
				t.Fatalf("seed %d: plan %q: %v", seed, src, err)
			} else if diff {
				ordersDiffer++
			}

			chosen, err := evalQ(costEnv, q)
			if err != nil {
				t.Fatalf("seed %d: cost-ordered eval of %q: %v", seed, src, err)
			}
			syntactic, err := evalQ(synEnv, q)
			if err != nil {
				t.Fatalf("seed %d: syntactic-order eval of %q: %v", seed, src, err)
			}
			if !chosen.Equal(syntactic, 1e-9) {
				t.Fatalf("seed %d: join order changed the answer of %q\ncost-chosen (%d tuples):\n%v\nsyntactic (%d tuples):\n%v",
					seed, src, chosen.Len(), chosen, syntactic.Len(), syntactic)
			}
			naive, err := newEnv(false).EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatalf("seed %d: naive eval of %q: %v", seed, src, err)
			}
			if !chosen.Equal(naive, 1e-9) {
				t.Fatalf("seed %d: planner answer differs from naive on %q\nplanner (%d tuples):\n%v\nnaive (%d tuples):\n%v",
					seed, src, chosen.Len(), chosen, naive.Len(), naive)
			}
		}
	}
	// The property is vacuous if the DP always kept the syntactic order.
	if ordersDiffer == 0 {
		t.Error("cost-based ordering never deviated from the syntactic order; the invariance check is vacuous")
	}
	t.Logf("cost-chosen order differed from syntactic in %d cases", ordersDiffer)
}

// plannedOrdersDiffer plans q in both environments and reports whether
// the join orders disagree (both plans must be join-shaped).
func plannedOrdersDiffer(costEnv, synEnv *core.Env, q *fsql.Select) (bool, error) {
	cp, err := costEnv.PlanQuery(q)
	if err != nil {
		return false, err
	}
	sp, err := synEnv.PlanQuery(q)
	if err != nil {
		return false, err
	}
	cj, ok := cp.Proj().Input.(*plan.Join)
	if !ok {
		return false, fmt.Errorf("cost plan body is %T, want a join", cp.Proj().Input)
	}
	sj, ok := sp.Proj().Input.(*plan.Join)
	if !ok {
		return false, fmt.Errorf("syntactic plan body is %T, want a join", sp.Proj().Input)
	}
	if len(cj.Order) != len(sj.Order) {
		return true, nil
	}
	for i := range cj.Order {
		if cj.Order[i] != sj.Order[i] {
			return true, nil
		}
	}
	return false, nil
}
