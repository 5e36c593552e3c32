package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// fusedProgram compiles the two-step chain the fused-filter tests run:
// X > "around 20" fused with X NEAR 30 WITHIN tol.
func fusedProgram(t testing.TB) *kernel.Program {
	t.Helper()
	prog, err := kernel.Compile([]kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Tri(10, 20, 30)))},
		{Kind: kernel.StepNear, Tol: fuzzy.Tri(-25, 0, 25),
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Crisp(30)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// interpretedChain evaluates fusedProgram's chain over r one tuple at a
// time from the chain's definition: each predicate caps the tuple's
// degree and is charged one evaluation, and a tuple that reaches zero is
// dropped and meets no later predicate.
func interpretedChain(r *frel.Relation) (out []frel.Tuple, evals int64) {
	konst1 := frel.Num(fuzzy.Tri(10, 20, 30))
	konst2 := fuzzy.Crisp(30)
	tol := fuzzy.Tri(-25, 0, 25)
	preds := []refPred{
		func(t frel.Tuple) float64 { return frel.Degree(fuzzy.OpGt, t.Values[1], konst1) },
		func(t frel.Tuple) float64 { return fuzzy.ApproxEq(t.Values[1].Num, konst2, tol) },
	}
	for _, t := range r.Tuples {
		for _, p := range preds {
			evals++
			if t.D = fuzzy.Min(t.D, p(t)); t.D <= 0 {
				break
			}
		}
		if t.D > 0 {
			out = append(out, t)
		}
	}
	return out, evals
}

// TestFusedFilterMatchesInterpreted cross-checks the fused filter chain
// against the per-tuple definition of the chain it compiles: identical
// output sequences and identical degree-evaluation counts — the kernel
// evaluates later predicates only on tuples earlier ones kept. A batch
// the kernel neither drops from nor re-grades is the producer's batch
// itself, not a copy.
func TestFusedFilterMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		r := randomRel("R", 200+rng.Intn(300), 60, 6, rng)
		ck := NewOpStats("kernel(fused)", "R")
		got := batchDrain(t, NewFusedFilter(NewMemSource(r), fusedProgram(t), ck))
		want, evals := interpretedChain(r)
		sameSequence(t, "fused filter", got, want)
		if ck.DegreeEvals.Load() != evals {
			t.Fatalf("kernel made %d degree evals, the chain's definition %d", ck.DegreeEvals.Load(), evals)
		}
		if ck.KernelTuples.Load() != int64(r.Len()) {
			t.Fatalf("KernelTuples %d, want %d", ck.KernelTuples.Load(), r.Len())
		}
	}

	certain := frel.NewRelation(xSchema("R"))
	for i := 0; i < BatchSize+10; i++ {
		certain.Append(frel.NewTuple(0.4, frel.Crisp(float64(i)), frel.Crisp(30)))
	}
	it, err := NewFusedFilter(NewMemSource(certain), fusedProgram(t), NewOpStats("kernel(fused)", "R")).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for at := 0; at < certain.Len(); {
		b, ok := it.NextBatch()
		if !ok {
			t.Fatalf("pass-through ended after %d of %d tuples", at, certain.Len())
		}
		if &b[0] != &certain.Tuples[at] {
			t.Fatalf("batch at %d was copied, want the source's own batch", at)
		}
		at += len(b)
	}
}

// TestFusedFilterStats checks that the fused filter's node receives the
// kernel observability counter and the degree evaluations it performs.
func TestFusedFilterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 120, 60, 6, rng)
	st := NewOpStats("kernel(fused)", "R")
	batchDrain(t, NewFusedFilter(NewMemSource(r), fusedProgram(t), st))
	snap := st.Snapshot()
	if snap.KernelTuples != int64(r.Len()) {
		t.Fatalf("stats KernelTuples = %d, want %d", snap.KernelTuples, r.Len())
	}
	if _, evals := interpretedChain(r); snap.DegreeEvals != evals {
		t.Fatalf("stats DegreeEvals = %d, want the chain's %d", snap.DegreeEvals, evals)
	}
}

// TestKernelPipelineAllocs is the allocation gate of the compiled path:
// the fused scan -> filter -> project chain must run at arena-level
// allocation cost, at most 0.01 allocations per tuple.
// Skipped under -race, which inflates allocation counts.
func TestKernelPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(23))
	r := randomRel("R", 40000, 200, 3, rng)
	// High-selectivity steps: every tuple is evaluated and re-graded by
	// both, so the gate measures the full per-tuple kernel cost.
	prog, err := kernel.Compile([]kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Tri(-20, -10, 0)))},
		{Kind: kernel.StepNear, Tol: fuzzy.Tri(-250, 0, 250),
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Crisp(100)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewOpStats("kernel(fused)", "R")

	var rows int
	allocs := testing.AllocsPerRun(5, func() {
		ff := NewFusedFilter(NewMemSource(r), prog, st)
		proj, err := NewProject(ff, []string{"R.ID"})
		if err != nil {
			t.Fatal(err)
		}
		it, err := proj.Open()
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			b, ok := it.NextBatch()
			if !ok {
				break
			}
			rows += len(b)
		}
		it.Close()
	})
	if rows == 0 {
		t.Fatal("fused pipeline produced no tuples")
	}
	perTuple := allocs / float64(rows)
	if perTuple > 0.01 {
		t.Errorf("fused pipeline allocates %.4f allocs/tuple (%.0f allocs for %d tuples), want <= 0.01",
			perTuple, allocs, rows)
	}
}
