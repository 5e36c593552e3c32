package workload

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
	"repro/internal/storage"
)

// chain3Query is the 3-level chain (Theorem 8.1) the fold differential
// runs beside the six paper classes; %s takes the WITH clause.
const chain3Query = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN (SELECT T.B FROM T WHERE T.A = S.A))%s`

// foldCase is one case of the fold differential: relations large enough
// that a parallel sweep runs several morsels, small enough that the naive
// evaluation of the 3-level chain stays cheap. The projected column R.K
// holds seven distinct values, so every answer depends on the duplicate
// elimination across tuples that sits above the folded join.
type foldCase struct {
	query   string
	r, s, t *frel.Relation
}

func newFoldCase(class string, seed int64) (*foldCase, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(class))))
	gen := func(name string, tuples int) (*frel.Relation, error) {
		rel, err := Generate(Params{
			Name: name, Tuples: tuples, TupleBytes: baseTupleBytes,
			Fanout: []int{2, 4, 7}[rng.Intn(3)], Width: 2 + 6*rng.Float64(),
			Jitter: rng.Float64(), Seed: rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		degradeDegrees(rng, rel)
		return rel, nil
	}
	c := &foldCase{}
	var err error
	if c.r, err = gen("R", 420); err != nil {
		return nil, err
	}
	if c.s, err = gen("S", 300); err != nil {
		return nil, err
	}
	if c.t, err = gen("T", 40); err != nil {
		return nil, err
	}
	for i := range c.r.Tuples {
		c.r.Tuples[i].Values[0] = frel.Crisp(float64(i % 7))
	}
	with := []string{"", " WITH D >= 0.3", " WITH D >= 0.6"}[rng.Intn(3)]
	tmpl := chain3Query
	if class != "K3" {
		tmpl = classQueries[class]
	}
	c.query = fmt.Sprintf(tmpl, with)
	return c, nil
}

// open loads the case into a fresh disk-backed database, with persistent
// order indexes on every join attribute when indexed.
func (c *foldCase) open(t *testing.T, indexed bool) *core.Session {
	t.Helper()
	sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 32, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*frel.Relation{c.r, c.s, c.t} {
		h, err := sess.Catalog().CreateRelation(rel.Schema.Name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Catalog().Save(); err != nil {
		t.Fatal(err)
	}
	if indexed {
		if _, err := execScript(sess, `
			CREATE INDEX r_a ON R (A); CREATE INDEX r_b ON R (B);
			CREATE INDEX s_a ON S (A); CREATE INDEX s_b ON S (B);
			CREATE INDEX t_a ON T (A); CREATE INDEX t_b ON T (B);`); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// TestDifferentialFold is the differential of the folded sweeps: every
// paper class and the 3-level chain, seeds 1-4, evaluated disk-backed by
// the default engine at 1/2/4/8 workers, with and without order indexes,
// with the cost-based join order and with the syntactic one (which puts
// the projected relation on the other side of the join, so the fold is
// carried by the outer input in one and by the inner input in the other).
// Every answer must equal the naive nested evaluation — the same rows,
// bit-identical degrees; AVG, which sums the same members in another
// order, within 1e-9 — and must come in the same row order whatever the
// worker count and whether or not an index served the sort.
func TestDifferentialFold(t *testing.T) {
	for _, class := range append(append([]string{}, Classes...), "K3") {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			folds := map[plan.Fold]bool{}
			var morsels, kernelTuples, indexHits int64
			for seed := int64(1); seed <= 4; seed++ {
				c, err := newFoldCase(class, seed)
				if err != nil {
					t.Fatal(err)
				}
				q, err := fsql.ParseQuery(c.query)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := memEnv(t, c.r, c.s, c.t).EvalNaive(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				naiveTol := 0.0
				if class == "JA" {
					naiveTol = 1e-9
				}

				// first[reorder] is the answer's row sequence on one worker
				// without an index; every other run must reproduce it.
				first := map[bool]*frel.Relation{}
				for _, indexed := range []bool{false, true} {
					sess := c.open(t, indexed)
					for _, reorder := range []bool{true, false} {
						for _, workers := range []int{1, 2, 4, 8} {
							sess.Env.Parallelism = workers
							sess.Env.DisableJoinReorder = !reorder
							// Drop the cached orders: every run sorts, or reads
							// its index, afresh.
							sess.Env.ReleaseSortCache()
							sess.Env.Work = exec.NewOpStats("total", "")
							got, err := sess.ExecContext(context.Background(), q)
							name := fmt.Sprintf("seed %d workers %d indexed %v reorder %v: %s", seed, workers, indexed, reorder, c.query)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !got.Equal(naive, naiveTol) {
								t.Fatalf("%s: differs from the naive evaluation\ngot (%d tuples):\n%v\nnaive (%d tuples):\n%v",
									name, got.Len(), got, naive.Len(), naive)
							}
							if first[reorder] == nil {
								first[reorder] = got
							}
							for i, want := range first[reorder].Tuples {
								if !got.Tuples[i].IdenticalValues(want) || got.Tuples[i].D != want.D {
									t.Fatalf("%s: row %d is %v; without an index, on one worker, it is %v",
										name, i, got.Tuples[i], want)
								}
							}
							if workers > 1 {
								morsels += sess.Env.Work.Morsels.Load()
							}
							kernelTuples += sess.Env.Work.KernelTuples.Load()
							indexHits += sess.Env.Work.IndexHits.Load()
							if p, err := sess.Env.PlanQuery(q); err != nil {
								t.Fatal(err)
							} else if j, ok := p.Proj().Input.(*plan.Join); ok {
								folds[j.Steps[len(j.Steps)-1].Fold] = true
							}
						}
					}
					sess.Close()
				}
			}
			// Non-vacuity: the kernel sweeps ran, on several morsels when
			// parallel, some sorts were served by an index, and the chain
			// classes folded onto both sides.
			if kernelTuples == 0 || indexHits == 0 {
				t.Errorf("kernel tuples %d, index hits %d: a leg did not run", kernelTuples, indexHits)
			}
			if morsels <= 4*2*2*3 {
				t.Errorf("parallel runs dispatched %d morsels: never more than one per sweep", morsels)
			}
			if chain := class == "N" || class == "J" || class == "K3"; chain && !(folds[plan.FoldOuter] && folds[plan.FoldInner]) {
				t.Errorf("fold sides seen %v: want the outer and the inner input", folds)
			}
		})
	}
}
