package kernel

import (
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// boundaryTraps is the boundary-case menagerie every degree test walks:
// crisp points, point-core triangles, rectangles, proper trapezoids, and
// shapes that touch exactly at a knee.
var boundaryTraps = []fuzzy.Trapezoid{
	fuzzy.Crisp(0),
	fuzzy.Crisp(5),
	fuzzy.Tri(0, 5, 10),
	fuzzy.Tri(4, 5, 6),
	fuzzy.Interval(2, 8),
	fuzzy.Trap(0, 2, 4, 6),
	fuzzy.Trap(4, 6, 8, 10),
	fuzzy.Trap(6, 6, 6, 10),  // degenerate rising edge
	fuzzy.Trap(0, 4, 4, 4),   // degenerate falling edge
	fuzzy.Trap(-3, -1, 1, 3), // spans zero
	fuzzy.Trap(10, 11, 12, 13),
}

// evalOne runs prog over a one-tuple batch — the loop production runs —
// and returns the tuple's combined degree and the evaluation count.
func evalOne(prog *Program, tup frel.Tuple) (float64, int64) {
	degs := make([]float64, 1)
	evals := prog.RunBatch([]frel.Tuple{tup}, degs)
	return degs[0], evals
}

var allOps = []fuzzy.Op{fuzzy.OpEq, fuzzy.OpNe, fuzzy.OpLt, fuzzy.OpLe, fuzzy.OpGt, fuzzy.OpGe}

// TestCompareBitIdentical asserts the compiled numeric fast path returns
// bit-for-bit the degree the interpreted frel.Degree computes, for every
// operator over every pair of boundary shapes.
func TestCompareBitIdentical(t *testing.T) {
	for _, op := range allOps {
		prog, err := Compile([]Step{{Kind: StepCompare, Op: op, Left: Column(0), Right: Column(1)}})
		if err != nil {
			t.Fatalf("Compile(%v): %v", op, err)
		}
		for _, u := range boundaryTraps {
			for _, v := range boundaryTraps {
				tup := frel.NewTuple(1, frel.Num(u), frel.Num(v))
				got, evals := evalOne(prog, tup)
				want := frel.Degree(op, frel.Num(u), frel.Num(v))
				if want > 1 {
					want = 1
				}
				if evals != 1 {
					t.Fatalf("%v %v %v: evals = %d, want 1", u, op, v, evals)
				}
				wantD := want
				if wantD > tup.D {
					wantD = tup.D
				}
				if got != wantD {
					t.Errorf("%v %v %v: compiled %v, interpreted %v", u, op, v, got, wantD)
				}
			}
		}
	}
}

// TestCompareStringsAndMixedKinds covers the fallback path: crisp string
// comparison, and the degree-0 rule for kind mismatches.
func TestCompareStringsAndMixedKinds(t *testing.T) {
	vals := []frel.Value{frel.Str("ann"), frel.Str("bob"), frel.Str("ann"), frel.Crisp(3)}
	for _, op := range allOps {
		prog, err := Compile([]Step{{Kind: StepCompare, Op: op, Left: Column(0), Right: Column(1)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range vals {
			for _, b := range vals {
				tup := frel.NewTuple(1, a, b)
				got, _ := evalOne(prog, tup)
				want := frel.Degree(op, a, b)
				if got != want {
					t.Errorf("%v %v %v: compiled %v, interpreted %v", a, op, b, got, want)
				}
			}
		}
	}
}

// TestNearBitIdentical asserts the compiled NEAR step matches
// fuzzy.ApproxEq, including its kind guard.
func TestNearBitIdentical(t *testing.T) {
	tol := fuzzy.Tolerance(1, 3)
	prog, err := Compile([]Step{{Kind: StepNear, Tol: tol, Left: Column(0), Right: Constant(frel.Crisp(5))}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range boundaryTraps {
		tup := frel.NewTuple(1, frel.Num(u))
		got, _ := evalOne(prog, tup)
		want := fuzzy.ApproxEq(u, fuzzy.Crisp(5), tol)
		if want > tup.D {
			want = tup.D
		}
		if got != want {
			t.Errorf("%v NEAR 5: compiled %v, interpreted %v", u, got, want)
		}
	}
	// Kind guard: NEAR against a string is degree 0.
	if d, _ := evalOne(prog, frel.NewTuple(1, frel.Str("x"))); d != 0 {
		t.Errorf("NEAR on string = %v, want 0", d)
	}
}

// TestThresholdAtKnee pins the degrees at the exact knee abscissae of a
// trapezoid: a crisp probe at B yields exactly 1, at A exactly 0, and the
// compiled degree agrees bit-for-bit so a threshold sitting exactly on a
// knee value keeps or drops the same tuples under both evaluators.
func TestThresholdAtKnee(t *testing.T) {
	tr := fuzzy.Trap(0, 2, 4, 8)
	for _, probe := range []float64{0, 2, 4, 8, 1, 6} {
		prog, err := Compile([]Step{{Kind: StepCompare, Op: fuzzy.OpEq, Left: Column(0), Right: Constant(frel.Num(tr))}})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := evalOne(prog, frel.NewTuple(1, frel.Crisp(probe)))
		want := fuzzy.Eq(fuzzy.Crisp(probe), tr)
		if got != want {
			t.Errorf("crisp %g vs %v: compiled %v, interpreted %v", probe, tr, got, want)
		}
	}
}

// TestRunBatchEmptyAndNoSteps covers the empty-batch and empty-program
// edges.
func TestRunBatchEmptyAndNoSteps(t *testing.T) {
	prog, err := Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := prog.RunBatch(nil, nil); n != 0 {
		t.Fatalf("empty program on empty batch: %d evals", n)
	}
	tup := frel.NewTuple(0.7, frel.Crisp(1))
	degs := make([]float64, 1)
	if n := prog.RunBatch([]frel.Tuple{tup}, degs); n != 0 || degs[0] != 0.7 {
		t.Fatalf("empty program: evals=%d degs=%v, want 0 evals and the tuple's D", n, degs)
	}
	one, err := Compile([]Step{{Kind: StepCompare, Op: fuzzy.OpEq, Left: Column(0), Right: Column(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if n := one.RunBatch(nil, nil); n != 0 {
		t.Fatalf("one-step program on empty batch: %d evals", n)
	}
	if prog.Len() != 0 || one.Len() != 1 {
		t.Fatalf("Len: %d, %d", prog.Len(), one.Len())
	}
}

// TestRunBatchFusionCounts asserts the fused loop evaluates later steps
// only on tuples the first step kept — the same counts an interpreted
// filter chain produces — and combines degrees by min with the tuple D.
func TestRunBatchFusionCounts(t *testing.T) {
	// Step 1: X = 5 (crisp); step 2: Y >= 3.
	prog, err := Compile([]Step{
		{Kind: StepCompare, Op: fuzzy.OpEq, Left: Column(0), Right: Constant(frel.Crisp(5))},
		{Kind: StepCompare, Op: fuzzy.OpGe, Left: Column(1), Right: Constant(frel.Crisp(3))},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := []frel.Tuple{
		frel.NewTuple(1, frel.Crisp(5), frel.Crisp(4)),                  // survives both
		frel.NewTuple(1, frel.Crisp(7), frel.Crisp(4)),                  // dies at step 1
		frel.NewTuple(0.5, frel.Num(fuzzy.Tri(3, 5, 7)), frel.Crisp(0)), // step 1 = 1, D = 0.5, dies at step 2
	}
	degs := make([]float64, len(batch))
	evals := prog.RunBatch(batch, degs)
	if want := int64(3 + 2); evals != want {
		t.Fatalf("evals = %d, want %d (3 first-step + 2 survivors)", evals, want)
	}
	if degs[0] != 1 || degs[1] != 0 || degs[2] != 0 {
		t.Fatalf("degs = %v, want [1 0 0]", degs)
	}
	// A batch of one agrees with its slot of the larger batch, and a tuple
	// the first step zeroes never reaches the second.
	for i, tup := range batch {
		if d, _ := evalOne(prog, tup); d != degs[i] {
			t.Errorf("one-tuple batch %d = %v, in the batch of three %v", i, d, degs[i])
		}
	}
	if _, n := evalOne(prog, batch[1]); n != 1 {
		t.Errorf("short-circuit: %d evals, want 1", n)
	}
}

// TestCompileErrors exercises the compile-time rejections.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile([]Step{{Kind: StepCompare, Op: fuzzy.Op(99)}}); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := Compile([]Step{{Kind: StepKind(99)}}); err == nil {
		t.Error("unknown step kind accepted")
	}
	bad := fuzzy.Trapezoid{A: 3, B: 2, C: 1, D: 0}
	if _, err := Compile([]Step{{Kind: StepNear, Tol: bad}}); err == nil {
		t.Error("invalid NEAR tolerance accepted")
	}
}
