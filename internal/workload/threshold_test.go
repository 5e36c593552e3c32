package workload

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
)

// thresholdSeeds is the number of cases per class and KERNEL_SEED stratum
// of TestThresholdOnlyRemovesRows.
const thresholdSeeds = 16

// thresholdCase returns the query template (%s takes the WITH clause) and
// the relations of one case: the kernel variant of a differential class
// over NewDiffCase's relations, or the 3-level chain over those and a
// third relation T drawn the same way.
func thresholdCase(class string, seed int64) (string, []*frel.Relation, error) {
	if class != "K3" {
		c, err := NewDiffCase(class, seed)
		if err != nil {
			return "", nil, err
		}
		return kernelQueries[class], []*frel.Relation{c.R, c.S}, nil
	}
	c, err := NewDiffCase("J", seed)
	if err != nil {
		return "", nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tr, err := Generate(Params{
		Name: "T", Tuples: 10 + rng.Intn(31), TupleBytes: baseTupleBytes,
		Fanout: []int{1, 2, 4}[rng.Intn(3)], Width: 2 + 6*rng.Float64(),
		Jitter: rng.Float64(), Seed: rng.Int63(),
	})
	if err != nil {
		return "", nil, err
	}
	degradeDegrees(rng, tr)
	return chain3Query, []*frel.Relation{c.R, c.S, tr}, nil
}

// TestThresholdOnlyRemovesRows is the metamorphic relation "raising the
// WITH threshold only removes rows": for every differential class and the
// 3-level chain, at 1 and 4 workers, the answer under WITH D >= z (and
// WITH D > z) must be exactly the rows of the unthresholded answer that
// the cut admits, at bit-identical degrees. The thresholds are every
// degree the unthresholded answer attains, the next float64 above each,
// 0 and 1, so every boundary a floored operator could get wrong by one
// ulp is crossed. It needs no oracle: the engine checks itself, with the
// push-threshold rule floored into its operators on one side and not on
// the other. KERNEL_SEED selects the seed stratum, as for
// TestDifferentialKernels.
func TestThresholdOnlyRemovesRows(t *testing.T) {
	seeds := int64(thresholdSeeds)
	if testing.Short() {
		seeds = 2
	}
	stratum := seedStratum(t)
	for _, class := range append(append([]string{}, Classes...), "K3") {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			var cuts, shrunk int
			for seed := stratum * seeds; seed < (stratum+1)*seeds; seed++ {
				tmpl, rels, err := thresholdCase(class, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					env := memEnv(t, rels...)
					env.Parallelism = workers
					eval := func(with string) (*frel.Relation, *plan.Plan) {
						query := fmt.Sprintf(tmpl, with)
						q, err := fsql.ParseQuery(query)
						if err != nil {
							t.Fatalf("parse %q: %v", query, err)
						}
						p, err := env.PlanQuery(q)
						if err != nil {
							t.Fatal(err)
						}
						rel, err := evalQ(env, q)
						if err != nil {
							t.Fatalf("seed %d workers %d: %s: %v", seed, workers, query, err)
						}
						return rel, p
					}
					base, _ := eval("")
					zs := []float64{0, 1}
					for _, tu := range base.Tuples {
						zs = append(zs, tu.D, math.Nextafter(tu.D, 2))
					}
					slices.Sort(zs)
					for _, z := range slices.Compact(zs) {
						if z > 1 {
							continue
						}
						for _, cut := range []frel.Cut{{Z: z}, {Z: z, Strict: true}} {
							got, p := eval(" WITH D " + cut.String())
							want := &frel.Relation{Schema: base.Schema, Tuples: append([]frel.Tuple(nil), base.Tuples...)}
							want.Threshold(cut)
							if !got.Equal(want, 0) {
								t.Fatalf("seed %d workers %d WITH D %v: %d rows, want the %d of the unthresholded answer it admits\ngot:\n%v\nwant:\n%v",
									seed, workers, cut, got.Len(), want.Len(), got, want)
							}
							if z > 0 && !slices.Contains(p.Rules, plan.RulePushThreshold) {
								t.Fatalf("seed %d WITH D %v: rules %v: the threshold was not pushed", seed, cut, p.Rules)
							}
							cuts++
							if want.Len() < base.Len() {
								shrunk++
							}
						}
					}
				}
			}
			if shrunk == 0 || shrunk == cuts {
				t.Errorf("%d of %d thresholds removed rows: the relation was not exercised", shrunk, cuts)
			}
		})
	}
}

// seedStratum reads KERNEL_SEED, the seed stratum of the randomized
// engine suites (0 when unset).
func seedStratum(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("KERNEL_SEED")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad KERNEL_SEED %q: %v", v, err)
	}
	return n
}
