package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
)

// diskEnv builds a catalog-backed environment with random on-disk
// relations, a small buffer pool, and a small sort budget, exercising heap
// scans, spills and external sorts through the whole unnesting stack.
func diskEnv(t *testing.T, rng *rand.Rand, nR, nS int) *Env {
	t.Helper()
	return diskEnvFS(t, nil, rng, nR, nS)
}

// diskEnvFS is diskEnv over the file system fs (nil: the operating
// system's).
func diskEnvFS(t *testing.T, fs storage.FS, rng *rand.Rand, nR, nS int) *Env {
	t.Helper()
	mgr, err := storage.NewManagerOptions(t.TempDir(), storage.ManagerOptions{PoolPages: 16, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(mgr)
	e := NewEnv(cat)
	e.SortMemPages = 2 // force multi-run external sorts

	for _, spec := range []struct {
		name string
		n    int
		a, b string
	}{{"R", nR, "U", "Y"}, {"S", nS, "V", "Z"}} {
		rel := randRelation(spec.name, spec.n, rng, spec.a, spec.b)
		h, err := cat.CreateRelation(spec.name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestDiskEquivalence runs every nesting type against disk-backed
// relations and compares the two evaluators.
func TestDiskEquivalence(t *testing.T) {
	queries := []struct {
		src  string
		want Strategy
	}{
		{`SELECT R.TAG FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyChain},
		{`SELECT R.TAG FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyAntiJoin},
		{`SELECT R.TAG FROM R WHERE R.Y > (SELECT MIN(S.Z) FROM S WHERE S.V = R.U)`, StrategyGroupAgg},
		{`SELECT R.TAG FROM R WHERE R.Y = (SELECT COUNT(S.Z) FROM S WHERE S.V = R.U)`, StrategyGroupAgg},
		{`SELECT R.TAG FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)`, StrategyAllAnti},
		{`SELECT R.TAG, S.TAG FROM R, S WHERE R.Y = S.Z`, StrategyFlat},
	}
	rng := rand.New(rand.NewSource(42))
	for i, tc := range queries {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			e := diskEnv(t, rng, 60, 80)
			q, err := fsql.ParseQuery(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if p, err := e.PlanQuery(q); err != nil || p.Strategy != tc.want {
				t.Errorf("strategy = %s, want %v", PlanSummary(p, err), tc.want)
			}
			naive, err := e.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			unnested, err := evalQ(e, q, nil)
			if err != nil {
				t.Fatalf("unnested: %v", err)
			}
			if !naive.Equal(unnested, 1e-9) {
				t.Fatalf("disk equivalence violated:\nnaive: %v\nunnested: %v", naive.Tuples, unnested.Tuples)
			}
			if pins := e.cat.Manager().Pool().PinnedPages(); pins != 0 {
				t.Errorf("leaked %d pinned pages", pins)
			}
		})
	}
}

// TestDiskIOAdvantage: on disk, with a buffer far smaller than the inner
// relation, the unnested merge-join evaluation must perform dramatically
// fewer page reads than the naive nested evaluation — the core claim of
// the paper.
func TestDiskIOAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// An inner relation much larger than the 16-page buffer pool, as in
	// the paper's setup (2 MB buffer vs up to 32 MB relations): every
	// naive rescan of the inner relation misses the cache.
	e := diskEnv(t, rng, 300, 5000)
	q, err := fsql.ParseQuery(`SELECT R.TAG FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`)
	if err != nil {
		t.Fatal(err)
	}
	stats := e.cat.Manager().Stats()

	stats.Reset()
	if _, err := e.EvalNaive(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	naiveReads, _, _, _ := stats.Snapshot()

	stats.Reset()
	if _, err := evalQ(e, q, nil); err != nil {
		t.Fatal(err)
	}
	unnestedIO := stats.IO()

	if naiveReads < 3*unnestedIO {
		t.Errorf("naive reads = %d, unnested I/O = %d; want naive >> unnested", naiveReads, unnestedIO)
	}
}

// TestDiskInsertThroughCatalogRoundTrip writes through the catalog and
// reads back through a query.
func TestDiskInsertThroughCatalogRoundTrip(t *testing.T) {
	mgr := storage.NewManager(t.TempDir(), 8)
	cat := catalog.New(mgr)
	cat.DefinePaperTerms()
	e := NewEnv(cat)
	schema := frel.NewSchema("W",
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		frel.Attribute{Name: "AGE", Kind: frel.KindNumber},
	)
	h, err := cat.CreateRelation("W", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Crisp(float64(20+i)))); err != nil {
			t.Fatal(err)
		}
	}
	q, err := fsql.ParseQuery(`SELECT W.ID FROM W WHERE W.AGE = 'medium young'`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := evalQ(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ages 21..29 are members of medium young (TRAP 20,25,30,35) to
	// positive degree; age 20 has degree 0.
	if rel.Len() != 9 {
		t.Errorf("answer = %v", rel.Tuples)
	}
}

// filteredSortQuery sorts a filtered scan of R, an input that is not a
// base relation.
const filteredSortQuery = `SELECT R.TAG FROM R WHERE R.U >= 0 AND R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)`

// sortedFilter finds the sort node over the filtered scan of R.
func sortedFilter(n *exec.StatsSnapshot) *exec.StatsSnapshot {
	if n.Op == "sort" && len(n.Children) == 1 && n.Children[0].Op != "scan" {
		return n
	}
	for _, c := range n.Children {
		if m := sortedFilter(c); m != nil {
			return m
		}
	}
	return nil
}

// TestSortIntermediateBySize: a sort input that is not a base relation (a
// filtered scan here) is sorted in memory when it fits the sort memory and
// writes runs when it does not. The input's size decides, and the answer
// does not depend on which it was.
func TestSortIntermediateBySize(t *testing.T) {
	q, err := fsql.ParseQuery(filteredSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	var answers []*frel.Relation
	for _, pages := range []int{256, 2} {
		e := diskEnv(t, rand.New(rand.NewSource(11)), 500, 200)
		e.SortMemPages = pages
		es := &ExecStats{}
		rel, err := evalQ(e, q, es)
		if err != nil {
			t.Fatal(err)
		}
		node := sortedFilter(es.Plan())
		if node == nil {
			t.Fatalf("no sort over a filtered input in:\n%s", es.Plan().Render())
		}
		if node.Comparisons == 0 {
			t.Errorf("sort memory %d pages: the input was not sorted:\n%s", pages, es.Plan().Render())
		}
		if inMemory := pages == 256; inMemory != (node.SortRuns == 0 && node.SpillBytes == 0) {
			t.Errorf("sort memory %d pages: runs %d, spill %d B:\n%s", pages, node.SortRuns, node.SpillBytes, es.Plan().Render())
		}
		if live := e.cat.Manager().LiveTemps(); live != 0 {
			t.Errorf("sort memory %d pages: %d temporaries live after the statement", pages, live)
		}
		answers = append(answers, rel)
	}
	if !answers[0].Equal(answers[1], 0) {
		t.Errorf("in-memory and external sorts of the intermediate give different answers")
	}
}

// tempCountFS counts the temporary heap files created through it.
type tempCountFS struct {
	storage.FS
	created atomic.Int64
}

func (c *tempCountFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	if flag&os.O_CREATE != 0 && strings.HasPrefix(filepath.Base(path), "tmp-") {
		c.created.Add(1)
	}
	return c.FS.OpenFile(path, flag, perm)
}

// TestSortIntermediateWritesOnlyItsRuns: a sort input that is not a base
// relation and exceeds the sort memory (a filtered scan of R here) is read
// straight into the external sort. The statement's only temporary files
// are the sorts' runs: the input is never first copied into a file of its
// own. Every page the statement writes is a sort's, and the sort nodes
// count it, also when run generation's workers write runs while the
// input is still being pulled.
func TestSortIntermediateWritesOnlyItsRuns(t *testing.T) {
	q, err := fsql.ParseQuery(filteredSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		fs := &tempCountFS{FS: storage.OsFS{}}
		e := diskEnvFS(t, fs, rand.New(rand.NewSource(11)), 5000, 200)
		e.SortMemPages, e.Parallelism = 8, workers
		// Start from a clean pool: no page loading left dirty is written
		// during the statement.
		if err := e.cat.Manager().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		r, err := e.cat.Relation("R")
		if err != nil {
			t.Fatal(err)
		}
		stats := e.cat.Manager().Stats()
		ios := stats.IO()
		es := &ExecStats{}
		if _, err := evalQ(e, q, es); err != nil {
			t.Fatal(err)
		}
		// Only the filtered scan's reads of R are not the sorts' I/O.
		sortIOs := sumTree(es.Plan(), func(n *exec.StatsSnapshot) int64 {
			if n.Op == "sort" {
				return n.PageIOs
			}
			return 0
		})
		if ios, inputPages := stats.IO()-ios, int64(r.NumPages()); sortIOs < ios-inputPages {
			t.Errorf("workers=%d: the sort nodes counted %d page I/Os, the statement did %d beside reading R's %d pages", workers, sortIOs, ios-inputPages, inputPages)
		}
		if node := sortedFilter(es.Plan()); node == nil || node.SortRuns == 0 {
			t.Fatalf("workers=%d: no sort over the filtered input wrote runs:\n%s", workers, es.Plan().Render())
		}
		var runs int64
		var walk func(n *exec.StatsSnapshot)
		walk = func(n *exec.StatsSnapshot) {
			if n.Op == "sort" {
				if n.MergePasses > 1 {
					t.Fatalf("workers=%d: a sort merged its runs into files before the final merge:\n%s", workers, es.Plan().Render())
				}
				runs += n.SortRuns
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(es.Plan())
		if got := fs.created.Load(); got != runs {
			t.Errorf("workers=%d: the statement created %d temporary files, its sorts wrote %d runs", workers, got, runs)
		}
		if live := e.cat.Manager().LiveTemps(); live != 0 {
			t.Errorf("workers=%d: %d temporaries live after the statement", workers, live)
		}
	}
}
