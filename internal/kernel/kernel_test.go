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

// TestCompilePairErrors exercises the same rejections for steps over a
// pair of rows, through the CompilePair name benchmark/trace.go uses.
func TestCompilePairErrors(t *testing.T) {
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.Op(99), Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepKind(99), Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("unknown step kind accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpEq, Left: Operand{Side: 7}, Right: RightColumn(0)}}); err == nil {
		t.Error("unknown left side accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpEq, Left: LeftColumn(0), Right: Operand{Side: 7}}}); err == nil {
		t.Error("unknown right side accepted")
	}
	bad := fuzzy.Trapezoid{A: 3, B: 2, C: 1, D: 0}
	if _, err := CompilePair([]PairStep{{Kind: StepNear, Tol: bad, Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("invalid NEAR tolerance accepted")
	}
}

// TestEvalAndBitIdentical asserts steps over a pair of rows match the
// interpreted value-level degrees for every operator and side shape.
func TestEvalAndBitIdentical(t *testing.T) {
	l := []frel.Value{frel.Num(fuzzy.Tri(0, 5, 10)), frel.Str("ann")}
	r := []frel.Value{frel.Crisp(4), frel.Str("bob")}
	for _, op := range allOps {
		prog, err := Compile([]Step{{Kind: StepCompare, Op: op, Left: Column(0), Right: RightColumn(0)}})
		if err != nil {
			t.Fatal(err)
		}
		got := evalPair(t, prog, l, r, 0)
		want := frel.Degree(op, l[0], r[0])
		if got != want {
			t.Errorf("%v: compiled %v, interpreted %v", op, got, want)
		}
	}
	// String columns ride the fallback path.
	sp, err := Compile([]Step{{Kind: StepCompare, Op: fuzzy.OpNe, Left: Column(1), Right: RightColumn(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalPair(t, sp, l, r, 0); got != 1 {
		t.Errorf("ann <> bob: %v, want 1", got)
	}
	// Constants and the right-side NEAR form.
	np, err := Compile([]Step{{Kind: StepNear, Tol: fuzzy.Tolerance(1, 2), Left: RightColumn(0), Right: Constant(frel.Crisp(4))}})
	if err != nil {
		t.Fatal(err)
	}
	got := evalPair(t, np, l, r, 0)
	if want := fuzzy.ApproxEq(fuzzy.Crisp(4), fuzzy.Crisp(4), fuzzy.Tolerance(1, 2)); got != want {
		t.Errorf("NEAR const: %v, want %v", got, want)
	}
}

// TestNeg covers the complemented (1-d) form the > ALL anti-join
// uses.
func TestNeg(t *testing.T) {
	prog, err := Compile([]Step{{Kind: StepCompare, Op: fuzzy.OpGt, Neg: true, Left: Column(0), Right: RightColumn(0)}})
	if err != nil {
		t.Fatal(err)
	}
	l := []frel.Value{frel.Crisp(7)}
	r := []frel.Value{frel.Crisp(3)}
	if got := evalPair(t, prog, l, r, 0); got != 1-fuzzy.Gt(fuzzy.Crisp(7), fuzzy.Crisp(3)) {
		t.Errorf("Neg: %v", got)
	}
	// NEAR with Neg, string guard included.
	np, err := Compile([]Step{{Kind: StepNear, Tol: fuzzy.Tolerance(0, 1), Neg: true, Left: Column(0), Right: RightColumn(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := evalPair(t, np, []frel.Value{frel.Str("x")}, r, 0); got != 1 {
		t.Errorf("Neg NEAR on string: %v, want 1", got)
	}
}

// TestEvalAndShortCircuit asserts the conjunction min-combines its
// conjuncts, is 1 when empty, and stops after — not before — the conjunct
// that reaches zero: the last conjunct here reads column 9 of the left
// columns, which holds no tuple, so evaluating it would panic.
func TestEvalAndShortCircuit(t *testing.T) {
	steps := []Step{
		{Kind: StepCompare, Op: fuzzy.OpLe, Left: Column(0), Right: Constant(frel.Num(fuzzy.Tri(0, 10, 20)))},
		{Kind: StepCompare, Op: fuzzy.OpEq, Left: Column(0), Right: RightColumn(0)}, // 0 for disjoint
		{Kind: StepCompare, Op: fuzzy.OpEq, Left: Column(0), Right: Column(9)},
	}
	prog, err := Compile(steps)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 3 {
		t.Fatalf("Len = %d", prog.Len())
	}
	l := []frel.Value{frel.Crisp(15)}
	// evalShort grades the pair with l widened to ten columns, the tenth
	// empty.
	evalShort := func(prog *Program, r []frel.Value, floor float64) float64 {
		t.Helper()
		wide := append(append([]frel.Value{}, l...), make([]frel.Value, 9)...)
		lc := rowColumns(wide)
		lc.Num[9] = lc.Num[9][:0]
		b, err := prog.Bind(lc, rowColumns(r))
		if err != nil {
			t.Fatal(err)
		}
		return b.EvalAnd(0, 0, floor)
	}
	if d := evalShort(prog, []frel.Value{frel.Crisp(100)}, 0); d != 0 {
		t.Fatalf("short-circuit: d=%v, want 0", d)
	}
	// All conjuncts positive: the minimum of every one.
	two, err := Compile(steps[:2])
	if err != nil {
		t.Fatal(err)
	}
	if d, want := evalPair(t, two, l, l, 0), fuzzy.Le(fuzzy.Crisp(15), fuzzy.Tri(0, 10, 20)); d != want || d <= 0 || d >= 1 {
		t.Fatalf("full conjunction: d=%v, want %v", d, want)
	}
	empty, err := Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := evalPair(t, empty, l, l, 0); d != 1 {
		t.Fatalf("empty conjunction: d=%v, want 1", d)
	}
	// A floor stops the conjunction once the running minimum (0.5 after the
	// first conjunct) is below it, before the panicking third conjunct; a
	// minimum exactly at the floor is not below it and goes on.
	skip, err := Compile([]Step{steps[0], steps[2]})
	if err != nil {
		t.Fatal(err)
	}
	if d := evalShort(skip, l, 0.6); d != 0.5 {
		t.Fatalf("floor 0.6: d=%v, want the 0.5 it stopped at", d)
	}
	if d := evalPair(t, two, l, l, 0.5); d != 0.5 {
		t.Fatalf("floor at the minimum: d=%v, want 0.5", d)
	}
}
