package workload

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
)

// kernelQueries mirrors classQueries with a local predicate added to the
// outer block (and, for the uncorrelated class N, to the inner block too).
// The stock class templates carry no local predicates at all, so against
// them the fused filter kernels would never fire.
// R.A = R.B compares two jittered triangular values generated around the
// same centre, so the predicate yields genuinely partial degrees rather
// than a crisp 0/1 cut.
var kernelQueries = map[string]string{
	"N":        `SELECT R.K FROM R WHERE R.A = R.B AND R.B IN (SELECT S.B FROM S WHERE S.A = S.B)%s`,
	"J":        `SELECT R.K FROM R WHERE R.A = R.B AND R.B IN (SELECT S.B FROM S WHERE S.A = R.A)%s`,
	"JX":       `SELECT R.K FROM R WHERE R.A = R.B AND R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)%s`,
	"JA":       `SELECT R.K FROM R WHERE R.A = R.B AND R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)%s`,
	"JA-COUNT": `SELECT R.K FROM R WHERE R.A = R.B AND R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)%s`,
	"JALL":     `SELECT R.K FROM R WHERE R.A = R.B AND R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)%s`,
}

// kernelDiffSeeds is the number of random cases per class and matrix
// stratum. KERNEL_SEED selects the stratum: stratum s covers seeds
// [s*kernelDiffSeeds, (s+1)*kernelDiffSeeds), so the CI matrix legs sweep
// disjoint seed ranges on top of the default stratum 0.
const kernelDiffSeeds = 50

// TestDifferentialKernels is the engine = naive property test by seed
// stratum: for every nesting class and seed, the unnested evaluation of
// the kernel query variant must return the naive evaluator's rows with
// bit-identical degrees (JA's AVG, which sums the same members in another
// order, within 1e-9), and must return bit-identical tuples and degrees
// (zero tolerance) at 1, 2, 4 and 8 workers. Each case asserts
// non-vacuity (fused kernels actually ran) and that the kernel query
// variants still classify to the class's expected rewrite.
func TestDifferentialKernels(t *testing.T) {
	seeds := int64(kernelDiffSeeds)
	if testing.Short() {
		seeds = 10
	}
	stratum := seedStratum(t)
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for seed := stratum * kernelDiffSeeds; seed < stratum*kernelDiffSeeds+seeds; seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				withClause := ""
				if c.With > 0 {
					withClause = fmt.Sprintf(" WITH D >= %g", c.With)
				}
				query := fmt.Sprintf(kernelQueries[class], withClause)
				q, err := fsql.ParseQuery(query)
				if err != nil {
					t.Fatalf("seed %d: parse %q: %v", seed, query, err)
				}

				want, err := memEnv(t, c.R, c.S).EvalNaive(context.Background(), q, nil)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				tol := 0.0
				if class == "JA" {
					tol = 1e-9
				}

				var serial *frel.Relation
				for _, workers := range []int{1, 2, 4, 8} {
					env := memEnv(t, c.R, c.S)
					env.Parallelism = workers
					if p, err := env.PlanQuery(q); err != nil || p.Strategy != expectedStrategy[class] {
						t.Fatalf("seed %d: class %s classified as %s, want %v",
							seed, class, core.PlanSummary(p, err), expectedStrategy[class])
					}
					got, err := evalQ(env, q)
					if err != nil {
						t.Fatalf("seed %d: workers %d: %v", seed, workers, err)
					}
					if env.Work.KernelTuples.Load() == 0 {
						t.Fatalf("seed %d: class %s: no fused kernels ran (vacuous differential) on %s",
							seed, class, query)
					}
					if serial == nil {
						serial = got
						if !got.Equal(want, tol) {
							t.Fatalf("seed %d: class %s engine/naive mismatch on %s\nR: %d tuples, S: %d tuples\nengine (%d tuples):\n%v\nnaive (%d tuples):\n%v",
								seed, class, query, c.R.Len(), c.S.Len(),
								got.Len(), got, want.Len(), want)
						}
					} else if !got.Equal(serial, 0) {
						t.Fatalf("seed %d: class %s workers 1/%d mismatch on %s\nserial (%d tuples):\n%v\nworkers %d (%d tuples):\n%v",
							seed, class, workers, query, serial.Len(), serial, workers, got.Len(), got)
					}
				}
			}
		})
	}
}
