package repro

// testing.B benchmarks, one per table and figure of the paper's evaluation
// (Section 9), plus ablations of the design choices called out in
// DESIGN.md. The full parameter sweeps with paper-vs-measured output live
// in cmd/fuzzybench; these benchmarks pin one representative configuration
// per experiment so `go test -bench=.` tracks regressions.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/storage"
	"repro/internal/workload"
)

// evalQ plans q and runs it on the engine with a background context.
func evalQ(env *core.Env, q *fsql.Select) (*frel.Relation, error) {
	p, err := env.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return env.Eval(context.Background(), p, nil)
}

// benchConfig is the shared scaled-down configuration.
func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{Dir: b.TempDir(), ScaleDiv: 128}
}

// runPair benches one method of the type J experiment at the given sizes.
func runPair(b *testing.B, m bench.Method, nOuter, nInner int) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meas, err := cfg.MeasureOne(m, nOuter, nInner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(meas.IOs), "pageIOs/op")
		b.ReportMetric(float64(meas.DegreeEvals), "degreeEvals/op")
	}
}

// Table 1: both relations equal-sized, C = 7, 128-byte tuples.

func BenchmarkTable1NestedLoop(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runPair(b, bench.NestedLoop, n, n)
		})
	}
}

func BenchmarkTable1MergeJoin(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runPair(b, bench.MergeJoin, n, n)
		})
	}
}

// Table 2: outer fixed, inner growing.

func BenchmarkTable2NestedLoop(b *testing.B) {
	for _, inner := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("inner=%d", inner), func(b *testing.B) {
			runPair(b, bench.NestedLoop, 500, inner)
		})
	}
}

func BenchmarkTable2MergeJoin(b *testing.B) {
	for _, inner := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("inner=%d", inner), func(b *testing.B) {
			runPair(b, bench.MergeJoin, 500, inner)
		})
	}
}

// Table 3 is the phase breakdown of the Table 2 merge-join runs; the
// benchmark reports the sort share as a metric.
func BenchmarkTable3SortShare(b *testing.B) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meas, err := cfg.MeasureOne(bench.MergeJoin, 500, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meas.SortFraction()*100, "sort%")
		b.ReportMetric(meas.CPUFraction()*100, "cpu%")
	}
}

// Table 4: tuple size sweep at C = 1.

func BenchmarkTable4TupleSize(b *testing.B) {
	for _, size := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.TupleBytes = size
			cfg.Fanout = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				meas, err := cfg.MeasureOne(bench.MergeJoin, 250, 250)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(meas.IOs), "pageIOs/op")
			}
		})
	}
}

// Fig. 3: join fanout sweep for the merge-join.

func BenchmarkFig3Fanout(b *testing.B) {
	for _, c := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.Fanout = c
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				meas, err := cfg.MeasureOne(bench.MergeJoin, 500, 500)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(meas.IOs), "pageIOs/op")
				b.ReportMetric(float64(meas.DegreeEvals), "degreeEvals/op")
			}
		})
	}
}

// --- Ablations -----------------------------------------------------------

// ablationRelations builds a sorted pair of workload relations in memory.
func ablationRelations(b *testing.B, n int, width float64) (outer, inner *frel.Relation) {
	b.Helper()
	r, err := workload.Generate(workload.Params{
		Name: "R", Tuples: n, TupleBytes: 128, Fanout: 7, Width: width, Jitter: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.Generate(workload.Params{
		Name: "S", Tuples: n, TupleBytes: 128, Fanout: 7, Width: width, Jitter: 0.5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, rel := range []*frel.Relation{r, s} {
		sortOn(b, rel, "B")
	}
	return r, s
}

// sortOn sorts rel in memory on the ≼ order of attr.
func sortOn(b *testing.B, rel *frel.Relation, attr string) {
	b.Helper()
	order, err := extsort.OrderBy(rel.Schema, attr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := extsort.SortRelation(rel, order); err != nil {
		b.Fatal(err)
	}
}

func drainJoin(b *testing.B, src exec.Source) int {
	b.Helper()
	rel, err := exec.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	return rel.Len()
}

// BenchmarkAblationRangeCursor measures the extended merge-join with its
// Rng(r) cursor against the same sorted inputs joined over the whole-inner
// window, with the equality as a conjunct: the same sweep without the range
// cursor, isolating the value of the cursor (Section 3).
func BenchmarkAblationRangeCursor(b *testing.B) {
	r, s := ablationRelations(b, 2000, 5)
	b.Run("with-cursor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mj, err := exec.NewKernelMergeJoin(exec.NewMemSource(r), exec.NewMemSource(s), "R.B", "S.B", fuzzy.Crisp(0), nil, exec.NewOpStats("merge-join", ""), 1)
			if err != nil {
				b.Fatal(err)
			}
			drainJoin(b, mj)
		}
	})
	b.Run("no-cursor-whole-window", func(b *testing.B) {
		ri, _ := r.Schema.Resolve("B")
		si, _ := s.Schema.Resolve("B")
		on, err := kernel.Compile([]kernel.Step{{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
			Left: kernel.Column(ri), Right: kernel.RightColumn(si)}})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			whole, err := exec.NewKernelMergeJoin(exec.NewMemSource(r), exec.NewMemSource(s), "", "", fuzzy.Crisp(0), on, exec.NewOpStats("merge-join", ""), 1)
			if err != nil {
				b.Fatal(err)
			}
			drainJoin(b, whole)
		}
	})
}

// BenchmarkAblationIntervalWidth exercises the paper's closing caveat:
// excessively vague values (temporal-database-sized intervals) keep
// dangling tuples inside Rng(r) and erode the merge-join's advantage. A
// growing fraction of the inner relation gets supports spanning many join
// groups; the pair-examination metric (support-intersecting pairs) shows
// the range bloat.
func BenchmarkAblationIntervalWidth(b *testing.B) {
	for _, vaguePct := range []int{0, 5, 20, 50} {
		b.Run(fmt.Sprintf("vague=%d%%", vaguePct), func(b *testing.B) {
			r, s := ablationRelations(b, 1000, 5)
			// Widen every (100/vaguePct)-th inner value to span ~10 of the
			// 1000-spaced centre groups.
			if vaguePct > 0 {
				s = s.Clone()
				bi, _ := s.Schema.Resolve("B")
				for i := range s.Tuples {
					if i%(100/vaguePct) == 0 {
						v := s.Tuples[i].Values[bi].Num
						s.Tuples[i].Values[bi] = frel.Num(fuzzy.Tri(v.B-5000, v.B, v.B+5000))
					}
				}
				sortOn(b, s, "B")
			}
			st := exec.NewOpStats("merge-join", "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mj, err := exec.NewKernelMergeJoin(exec.NewMemSource(r), exec.NewMemSource(s), "R.B", "S.B", fuzzy.Crisp(0), nil, st, 1)
				if err != nil {
					b.Fatal(err)
				}
				drainJoin(b, mj)
			}
			b.ReportMetric(float64(st.Comparisons.Load())/float64(b.N), "pairExams/op")
		})
	}
}

// BenchmarkAblationParallelism measures the merge-join at 1, 2, 4 and 8
// workers on the Table 1 workload (equal relations, C = 7, 128-byte
// tuples). The inputs are pre-sorted so the comparison isolates the join
// itself; every worker count returns the identical fuzzy relation (see
// exec.TestParallelMergeJoinEquivalence).
func BenchmarkAblationParallelism(b *testing.B) {
	r, s := ablationRelations(b, 8000, 5)
	run := func(b *testing.B, mk func() (exec.Source, error)) {
		want := -1
		for i := 0; i < b.N; i++ {
			src, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			n := drainJoin(b, src)
			if want < 0 {
				want = n
			} else if n != want {
				b.Fatalf("answer cardinality changed: %d vs %d", n, want)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run(b, func() (exec.Source, error) {
				return exec.NewKernelMergeJoin(exec.NewMemSource(r), exec.NewMemSource(s),
					"R.B", "S.B", fuzzy.Crisp(0), nil, exec.NewOpStats("merge-join", ""), workers)
			})
		})
	}
}

// BenchmarkAblationParallelSort measures parallel run generation in the
// external sort (serial vs 4 workers) on the Table 1 workload spilled to
// disk with a small memory budget.
func BenchmarkAblationParallelSort(b *testing.B) {
	rel, err := workload.Generate(workload.Params{
		Name: "R", Tuples: 8000, TupleBytes: 128, Fanout: 7, Width: 5, Jitter: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mgr := storage.NewManager(b.TempDir(), 16)
				cat := catalog.New(mgr)
				h, err := cat.CreateRelation("R", rel.Schema)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.AppendAll(rel); err != nil {
					b.Fatal(err)
				}
				order, err := extsort.OrderBy(h.Schema, "B")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				drainSort(b, extsort.NewSorter(mgr, 4).WithParallelism(workers), h, order)
			}
		})
	}
}

// BenchmarkAblationChainOrder compares the DP join ordering against the
// syntactic order on a 3-level chain whose best order differs from the
// syntactic one (Section 8's dynamic programming suggestion).
func BenchmarkAblationChainOrder(b *testing.B) {
	mk := func(name string, n int, seed int64) *frel.Relation {
		rel, err := workload.Generate(workload.Params{
			Name: name, Tuples: n, TupleBytes: 128, Fanout: 4, Width: 5, Jitter: 0.5, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return rel
	}
	query := `
		SELECT R1.K FROM R1
		WHERE R1.B IN
		  (SELECT R2.B FROM R2
		   WHERE R2.A = R1.A AND R2.B IN
		     (SELECT R3.B FROM R3 WHERE R3.A = R2.A))`
	q, err := fsql.ParseQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	for _, dp := range []bool{true, false} {
		name := "dp-order"
		if !dp {
			name = "syntactic-order"
		}
		b.Run(name, func(b *testing.B) {
			// Syntactic order joins the two large relations first; the DP
			// order starts from the tiny R3 and keeps intermediates small.
			env := core.NewMemEnv()
			env.DisableJoinReorder = !dp
			for _, r := range []*frel.Relation{mk("R1", 3000, 1), mk("R2", 3000, 2), mk("R3", 60, 3)} {
				if err := env.LoadRelation(r.Schema.Name, r); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evalQ(env, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBufferSize varies the buffer pool while the data size
// stays fixed, showing the merge-join's I/O sensitivity to memory.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, pages := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			var lastIOs int64
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				mgr := storage.NewManager(dir, pages)
				cat := catalog.New(mgr)
				env := core.NewEnv(cat)
				env.SortMemPages = pages
				for _, spec := range []struct {
					name string
					seed int64
				}{{"R", 1}, {"S", 2}} {
					if _, err := workload.Load(cat, workload.Params{
						Name: spec.name, Tuples: 2000, TupleBytes: 128,
						Fanout: 7, Width: 5, Jitter: 0.5, Seed: spec.seed,
					}); err != nil {
						b.Fatal(err)
					}
				}
				q, err := fsql.ParseQuery(bench.TypeJQuery)
				if err != nil {
					b.Fatal(err)
				}
				mgr.Stats().Reset()
				if _, err := evalQ(env, q); err != nil {
					b.Fatal(err)
				}
				lastIOs = mgr.Stats().IO()
			}
			b.ReportMetric(float64(lastIOs), "pageIOs/op")
		})
	}
}

// BenchmarkFuzzyDegree pins the cost of the closed-form satisfaction
// degrees — the paper's "calls to the fuzzy library functions".
func BenchmarkFuzzyDegree(b *testing.B) {
	u := fuzzy.Trap(20, 25, 30, 35)
	v := fuzzy.Tri(30, 35, 40)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fuzzy.Eq(u, v) + fuzzy.Lt(u, v)
	}
	_ = sink
}

// BenchmarkExternalSort pins the external sort on the Definition 3.1
// order.
func BenchmarkExternalSort(b *testing.B) {
	rel, err := workload.Generate(workload.Params{
		Name: "R", Tuples: 5000, TupleBytes: 128, Fanout: 7, Width: 5, Jitter: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mgr := storage.NewManager(b.TempDir(), 8)
		cat := catalog.New(mgr)
		h, err := cat.CreateRelation("R", rel.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			b.Fatal(err)
		}
		order, err := extsort.OrderBy(h.Schema, "B")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		drainSort(b, extsort.NewSorter(mgr, 8), h, order)
	}
}

// drainSort sorts h by order and pulls the sort's final merge to its end.
func drainSort(b *testing.B, s *extsort.Sorter, h *storage.HeapFile, order extsort.Order) {
	sc := h.Scan()
	defer sc.Close()
	str, err := s.Stream(h.Schema, sc, h.Bytes(), order)
	if err != nil {
		b.Fatal(err)
	}
	for _, ok := str.Next(); ok; _, ok = str.Next() {
	}
	if err := str.Err(); err != nil {
		b.Fatal(err)
	}
	if err := str.Close(); err != nil {
		b.Fatal(err)
	}
}
