package workload

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
)

// evalQ plans q and runs it on the engine with a background context.
func evalQ(env *core.Env, q *fsql.Select) (*frel.Relation, error) {
	p, err := env.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return env.Eval(context.Background(), p, nil)
}

// execScript parses a semicolon-separated script and executes its
// statements in order, returning the answer of each query and EXPLAIN.
func execScript(s *core.Session, src string) ([]*frel.Relation, error) {
	stmts, err := fsql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var answers []*frel.Relation
	for _, st := range stmts {
		rel, err := s.Exec(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st, err)
		}
		if rel != nil {
			answers = append(answers, rel)
		}
	}
	return answers, nil
}

// memEnv returns a core.NewMemEnv environment holding rels, each loaded
// into a catalog heap under its schema name.
func memEnv(t testing.TB, rels ...*frel.Relation) *core.Env {
	t.Helper()
	env := core.NewMemEnv()
	for _, r := range rels {
		if err := env.LoadRelation(r.Schema.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// expectedStrategy is the rewrite each class must classify to; a naive
// fallback would make the differential comparison vacuous.
var expectedStrategy = map[string]core.Strategy{
	"N":        core.StrategyChain,
	"J":        core.StrategyChain,
	"JX":       core.StrategyAntiJoin,
	"JA":       core.StrategyGroupAgg,
	"JA-COUNT": core.StrategyGroupAgg,
	"JALL":     core.StrategyAllAnti,
}

// diffSeeds is the number of random cases per class; the acceptance bar
// of the harness is >= 200 pairs per class with zero mismatches.
const diffSeeds = 200

// TestDifferentialUnnesting validates the equivalence theorems 4.1-8.1 by
// randomized differential testing: for every class and seed, the naive
// nested evaluation and the unnested rewrite must return the same tuples
// with the same membership degrees.
func TestDifferentialUnnesting(t *testing.T) {
	seeds := diffSeeds
	if testing.Short() {
		seeds = 25
	}
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(seeds); seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				q, err := fsql.ParseQuery(c.Query)
				if err != nil {
					t.Fatalf("seed %d: parse %q: %v", seed, c.Query, err)
				}
				env := memEnv(t, c.R, c.S)

				if p, err := env.PlanQuery(q); err != nil || p.Strategy != expectedStrategy[class] {
					t.Fatalf("seed %d: class %s classified as %s, want %v",
						seed, class, core.PlanSummary(p, err), expectedStrategy[class])
				}

				naive, err := env.EvalNaive(context.Background(), q, nil)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				unnested, err := evalQ(env, q)
				if err != nil {
					t.Fatalf("seed %d: unnested: %v", seed, err)
				}
				if !naive.Equal(unnested, 1e-9) {
					t.Fatalf("seed %d: class %s mismatch on %s\nR: %d tuples, S: %d tuples\nnaive (%d tuples):\n%v\nunnested (%d tuples):\n%v",
						seed, class, c.Query, c.R.Len(), c.S.Len(),
						naive.Len(), naive, unnested.Len(), unnested)
				}

				// Third leg: the second evaluation on the same environment
				// admits the orders the first one streamed into the
				// sort-order cache, and the third is served from it. Both
				// must return the identical answer.
				for _, leg := range []string{"admitting", "warm"} {
					hits := env.Work.CacheHits.Load()
					warm, err := evalQ(env, q)
					if err != nil {
						t.Fatalf("seed %d: unnested, %s sort cache: %v", seed, leg, err)
					}
					if leg == "warm" && env.Work.CacheHits.Load() == hits {
						t.Fatalf("seed %d: class %s: the third evaluation hit no cached order", seed, class)
					}
					if !naive.Equal(warm, 1e-9) || !unnested.Equal(warm, 0) {
						t.Fatalf("seed %d: class %s cold/%s mismatch on %s\ncold (%d tuples):\n%v\n%s (%d tuples):\n%v",
							seed, class, leg, c.Query,
							unnested.Len(), unnested, leg, warm.Len(), warm)
					}
				}
			}
		})
	}
}
