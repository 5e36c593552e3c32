package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
	"repro/internal/workload"
)

// analyzeEnv builds a disk-backed environment with generated R/S
// relations (the bench workload shape) at the given parallelism.
func analyzeEnv(t *testing.T, tuples, workers int) *Env {
	t.Helper()
	mgr := storage.NewManager(t.TempDir(), 16)
	cat := catalog.New(mgr)
	env := NewEnv(cat)
	env.SortMemPages = 8
	env.Parallelism = workers
	for i, name := range []string{"R", "S"} {
		if _, err := workload.Load(cat, workload.Params{
			Name: name, Tuples: tuples, TupleBytes: 128,
			Fanout: 7, Width: 5, Jitter: 0.5, Seed: int64(1 + i),
		}); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return env
}

const analyzeQuery = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`

// TestExplainAnalyzeCollectsStats checks that an analyzed run attaches a
// populated operator tree: nonzero rows, comparisons and wall time, a
// merge-join node with Rng(r) observations for every outer tuple, and
// sort nodes carrying run/spill statistics.
func TestExplainAnalyzeCollectsStats(t *testing.T) {
	env := analyzeEnv(t, 400, 1)
	// 400 tuples of 128 bytes fit 8 pages of sort memory and would sort
	// without writing anything; at 4 pages one run reaches disk.
	env.SortMemPages = 4
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	es := &ExecStats{}
	rel, err := evalQ(env, q, es)
	if err != nil {
		t.Fatal(err)
	}
	if es.Strategy != StrategyChain {
		t.Fatalf("strategy = %v, want %v", es.Strategy, StrategyChain)
	}
	if es.Root == nil {
		t.Fatal("no stats tree collected")
	}
	if es.Answer != rel.Len() {
		t.Fatalf("Answer = %d, want %d", es.Answer, rel.Len())
	}
	snap := es.Plan()
	rows, cmp, deg := snap.Totals()
	if rows == 0 || cmp == 0 || deg == 0 {
		t.Fatalf("zero work counters: rows=%d cmp=%d deg=%d", rows, cmp, deg)
	}
	if es.Wall <= 0 {
		t.Fatalf("non-positive wall time %v", es.Wall)
	}
	mj := snap.Find("merge-join")
	if mj == nil {
		t.Fatalf("no merge-join node in:\n%s", snap.Render())
	}
	if mj.RngCount != 400 {
		t.Fatalf("merge-join RngCount = %d, want one observation per outer tuple (400)", mj.RngCount)
	}
	if mj.Comparisons == 0 || mj.RngMax == 0 {
		t.Fatalf("empty merge-join stats: %+v", mj)
	}
	sortNode := snap.Find("sort")
	if sortNode == nil {
		t.Fatalf("no sort node in:\n%s", snap.Render())
	}
	if sortNode.SortRuns == 0 || sortNode.SpillBytes == 0 {
		t.Fatalf("external sort reported no runs/spill: %+v", sortNode)
	}
	if snap.Find("scan") == nil || snap.Find("project") == nil {
		t.Fatalf("missing scan/project nodes in:\n%s", snap.Render())
	}
}

// TestAnalyzeNaiveRootSynthesis checks that the naive evaluator (which
// has no operator pipeline) still reports its work as one root node.
func TestAnalyzeNaiveRootSynthesis(t *testing.T) {
	env := analyzeEnv(t, 100, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	es := &ExecStats{}
	rel, err := env.EvalNaive(context.Background(), q, es)
	if err != nil {
		t.Fatal(err)
	}
	if es.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v, want %v", es.Strategy, StrategyNaive)
	}
	if es.Root == nil {
		t.Fatal("no naive root")
	}
	snap := es.Plan()
	if snap.RowsOut != int64(rel.Len()) {
		t.Fatalf("RowsOut = %d, want %d", snap.RowsOut, rel.Len())
	}
	if snap.DegreeEvals == 0 {
		t.Fatal("naive root has no degree evaluations")
	}
}

// TestAnalyzePrunedCount checks WITH D >= thresholding is accounted.
func TestAnalyzePrunedCount(t *testing.T) {
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(0.4, frel.Crisp(2), frel.Crisp(20)))
	r.Append(frel.NewTuple(0.2, frel.Crisp(3), frel.Crisp(30)))
	env := memEnv(r)
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.B >= 0 WITH D >= 0.3`)
	if err != nil {
		t.Fatal(err)
	}
	es := &ExecStats{}
	rel, err := evalQ(env, q, es)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("answer = %d tuples, want 2", rel.Len())
	}
	if es.Pruned != 1 {
		t.Fatalf("Pruned = %d, want 1", es.Pruned)
	}
}

// TestAnalyzeParallelInvariance is the property test of the stats
// contract: serial and parallel executions of the same query must return
// identical answers AND identical aggregated work counters (rows,
// comparisons, degree evaluations, and the full Rng(r) distribution).
func TestAnalyzeParallelInvariance(t *testing.T) {
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		label                string
		rel                  *frel.Relation
		rows, cmp, deg       int64
		rngN, rngMin, rngMax int64
		rngSum               float64
	}
	// The stats contract holds across worker counts: all four runs must
	// agree on the answer, the rows out, and on the comparisons, degree
	// evaluations and Rng(r) scans.
	var runs []run
	for _, workers := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		env := analyzeEnv(t, 600, workers)
		es := &ExecStats{}
		rel, err := evalQ(env, q, es)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		snap := es.Plan()
		rows, cmp, deg := snap.Totals()
		mj := snap.Find("merge-join")
		if mj == nil {
			t.Fatalf("%s: no merge-join node in:\n%s", label, snap.Render())
		}
		if env.Work.KernelTuples.Load() == 0 {
			t.Fatalf("%s: compiled kernels did not fire", label)
		}
		runs = append(runs, run{
			label: label, rel: rel,
			rows: rows, cmp: cmp, deg: deg,
			rngN: mj.RngCount, rngMin: mj.RngMin, rngMax: mj.RngMax,
			rngSum: mj.RngAvg * float64(mj.RngCount),
		})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if !base.rel.Equal(r.rel, 1e-9) {
			t.Errorf("%s: answer differs from %s (%d vs %d tuples)",
				r.label, base.label, r.rel.Len(), base.rel.Len())
		}
		if r.cmp != base.cmp || r.deg != base.deg {
			t.Errorf("%s: work totals differ from %s: cmp %d/%d deg %d/%d",
				r.label, base.label, r.cmp, base.cmp, r.deg, base.deg)
		}
		if r.rows != base.rows {
			t.Errorf("%s: %d rows out, %s has %d", r.label, r.rows, base.label, base.rows)
		}
		if r.rngN != base.rngN || r.rngMin != base.rngMin || r.rngMax != base.rngMax ||
			math.Abs(r.rngSum-base.rngSum) > 1e-6 {
			t.Errorf("%s: Rng distribution differs from %s: n %d/%d min %d/%d max %d/%d sum %.1f/%.1f",
				r.label, base.label, r.rngN, base.rngN, r.rngMin, base.rngMin, r.rngMax, base.rngMax, r.rngSum, base.rngSum)
		}
	}
}

// danglingEnv builds an environment whose join attribute A holds
// narrow triangles at even centres, 1 000 outer and 1 000 inner tuples one
// to a centre, and between every two centres one inner tuple that joins
// nothing. Whether a sweep's window slides over such a dangling tuple
// depends on where the morsels are cut.
func danglingEnv(workers int) *Env {
	schema := func(name string) *frel.Schema {
		return frel.NewSchema(name,
			frel.Attribute{Name: "K", Kind: frel.KindNumber},
			frel.Attribute{Name: "A", Kind: frel.KindNumber},
			frel.Attribute{Name: "B", Kind: frel.KindNumber})
	}
	tri := func(c, w float64) frel.Value { return frel.Num(fuzzy.Tri(c-w, c, c+w)) }
	r, s := frel.NewRelation(schema("R")), frel.NewRelation(schema("S"))
	for k := 0; k < 1000; k++ {
		c := float64(2 * k)
		r.Append(frel.NewTuple(1, frel.Crisp(float64(k)), tri(c, 0.5), frel.Crisp(float64(k%3))))
		s.Append(frel.NewTuple(1, frel.Crisp(float64(k)), tri(c, 0.5), frel.Crisp(float64(k%2))))
		s.Append(frel.NewTuple(1, frel.Crisp(float64(k)), tri(c+1, 0.25), frel.Crisp(0)))
	}
	env := memEnv(r, s)
	env.Parallelism = workers
	return env
}

// TestWorkTotalsInvariant: the environment's running total follows one
// counting rule, the tree's. For the type N, J, JX and JA queries over data
// whose sweeps slide over dangling tuples, each run three times (the
// second admits the orders into the sort cache, the third hits them), Env.Work's comparisons, degree evaluations, kernel
// tuples and sort-cache hits are the same at 1, 2, 4 and 8 workers, and
// equal the totals of the same statements' EXPLAIN ANALYZE trees.
func TestWorkTotalsInvariant(t *testing.T) {
	var hits int64
	for _, qs := range []string{
		`SELECT R.K FROM R WHERE R.A IN (SELECT S.A FROM S)`,
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`,
		`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`,
		`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
	} {
		q, err := fsql.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		var serial [4]int64
		for _, workers := range []int{1, 2, 4, 8} {
			plain, analyzed := danglingEnv(workers), danglingEnv(workers)
			var tree [4]int64
			for run := 0; run < 3; run++ {
				if _, err := evalQ(plain, q, nil); err != nil {
					t.Fatalf("%s: %v", qs, err)
				}
				es := &ExecStats{}
				_, err := evalQ(analyzed, q, es)
				if err != nil {
					t.Fatalf("%s: %v", qs, err)
				}
				snap := es.Plan()
				_, cmp, deg := snap.Totals()
				tree[0] += cmp
				tree[1] += deg
				tree[2] += sumTree(snap, func(n *exec.StatsSnapshot) int64 { return n.KernelTuples })
				tree[3] += sumTree(snap, func(n *exec.StatsSnapshot) int64 { return n.CacheHits })
			}
			w := plain.Work
			got := [4]int64{w.Comparisons.Load(), w.DegreeEvals.Load(), w.KernelTuples.Load(), w.CacheHits.Load()}
			if got[0] == 0 || got[1] == 0 || got[2] == 0 {
				t.Fatalf("%s workers=%d: no work counted: %v", qs, workers, got)
			}
			if workers == 1 {
				serial = got
			} else if got != serial {
				t.Errorf("%s: cmp/deg/kernel/cache %v at %d workers, %v serially", qs, got, workers, serial)
			}
			if got != tree {
				t.Errorf("%s workers=%d: Env.Work %v, EXPLAIN ANALYZE trees %v", qs, workers, got, tree)
			}
			hits += got[3]
		}
	}
	if hits == 0 {
		t.Error("no statement hit the sort cache: the cache-hit comparison is vacuous")
	}
}

// TestFailedStatementWork: a statement that fails partway adds the work
// it did to Env.Work whether it ran plain or analyzed. The aggregate
// subquery's filter evaluates degrees before AVG finds a string.
func TestFailedStatementWork(t *testing.T) {
	q := mustParse(t, `SELECT R.K FROM R WHERE R.A >= (SELECT AVG(S.N) FROM S WHERE S.A = 'about 35')`)
	var deltas [2][3]int64
	for i, es := range []*ExecStats{nil, {}} {
		sess, err := OpenSession(t.TempDir(), 32)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := execScript(sess, `
			CREATE TABLE R (K NUMBER, A NUMBER);
			CREATE TABLE S (A NUMBER, N STRING);
			INSERT INTO R VALUES (1, 30);
			INSERT INTO S VALUES ('about 35', 'x');
			INSERT INTO S VALUES (40, 'y');`); err != nil {
			t.Fatal(err)
		}
		w := sess.Env.Work
		before := [3]int64{w.DegreeEvals.Load(), w.Comparisons.Load(), w.KernelTuples.Load()}
		if _, err := evalQ(sess.Env, q, es); err == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Fatalf("es=%v: err = %v, want AVG over non-numeric values", es, err)
		}
		deltas[i] = [3]int64{w.DegreeEvals.Load() - before[0], w.Comparisons.Load() - before[1], w.KernelTuples.Load() - before[2]}
	}
	if deltas[0][0] == 0 {
		t.Fatal("the failed statement evaluated no degrees: the comparison is vacuous")
	}
	if deltas[0] != deltas[1] {
		t.Errorf("Env.Work grew by deg/cmp/kernel %v plain, %v analyzed", deltas[0], deltas[1])
	}
}

// sumTree sums one counter over a snapshot tree.
func sumTree(n *exec.StatsSnapshot, field func(*exec.StatsSnapshot) int64) int64 {
	v := field(n)
	for _, c := range n.Children {
		v += sumTree(c, field)
	}
	return v
}
