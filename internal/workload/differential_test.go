package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
)

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

				if plan := env.Explain(q); plan.Strategy != expectedStrategy[class] {
					t.Fatalf("seed %d: class %s classified as %v (%s), want %v",
						seed, class, plan.Strategy, plan.Note, expectedStrategy[class])
				}

				naive, err := env.EvalNaive(q)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				unnested, err := env.EvalUnnested(q)
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
					warm, err := env.EvalUnnested(q)
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
