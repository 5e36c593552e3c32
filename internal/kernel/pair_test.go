package kernel

import (
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// TestPairBitIdentical asserts compiled join conjuncts match the
// interpreted value-level degrees for every operator and side shape.
func TestPairBitIdentical(t *testing.T) {
	l := []frel.Value{frel.Num(fuzzy.Tri(0, 5, 10)), frel.Str("ann")}
	r := []frel.Value{frel.Crisp(4), frel.Str("bob")}
	for _, op := range allOps {
		prog, err := CompilePair([]PairStep{{Kind: StepCompare, Op: op, Left: LeftColumn(0), Right: RightColumn(0)}})
		if err != nil {
			t.Fatal(err)
		}
		got := prog.EvalAnd(l, r, 0)
		want := frel.Degree(op, l[0], r[0])
		if got != want {
			t.Errorf("%v: compiled %v, interpreted %v", op, got, want)
		}
	}
	// String columns ride the fallback path.
	sp, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpNe, Left: LeftColumn(1), Right: RightColumn(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.EvalAnd(l, r, 0); got != 1 {
		t.Errorf("ann <> bob: %v, want 1", got)
	}
	// Constants and the right-side NEAR form.
	np, err := CompilePair([]PairStep{{Kind: StepNear, Tol: fuzzy.Tolerance(1, 2), Left: RightColumn(0), Right: PairConstant(frel.Crisp(4))}})
	if err != nil {
		t.Fatal(err)
	}
	got := np.EvalAnd(l, r, 0)
	if want := fuzzy.ApproxEq(fuzzy.Crisp(4), fuzzy.Crisp(4), fuzzy.Tolerance(1, 2)); got != want {
		t.Errorf("NEAR const: %v, want %v", got, want)
	}
}

// TestPairNeg covers the complemented (1-d) form the > ALL anti-join
// uses.
func TestPairNeg(t *testing.T) {
	prog, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpGt, Neg: true, Left: LeftColumn(0), Right: RightColumn(0)}})
	if err != nil {
		t.Fatal(err)
	}
	l := []frel.Value{frel.Crisp(7)}
	r := []frel.Value{frel.Crisp(3)}
	if got := prog.EvalAnd(l, r, 0); got != 1-fuzzy.Gt(fuzzy.Crisp(7), fuzzy.Crisp(3)) {
		t.Errorf("Neg: %v", got)
	}
	// NEAR with Neg, string guard included.
	np, err := CompilePair([]PairStep{{Kind: StepNear, Tol: fuzzy.Tolerance(0, 1), Neg: true, Left: LeftColumn(0), Right: RightColumn(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := np.EvalAnd([]frel.Value{frel.Str("x")}, r, 0); got != 1 {
		t.Errorf("Neg NEAR on string: %v, want 1", got)
	}
}

// TestEvalAndShortCircuit asserts the conjunction min-combines its
// conjuncts, is 1 when empty, and stops after — not before — the conjunct
// that reaches zero: the last conjunct here reads a column the rows do not
// have, so evaluating it would panic.
func TestEvalAndShortCircuit(t *testing.T) {
	steps := []PairStep{
		{Kind: StepCompare, Op: fuzzy.OpLe, Left: LeftColumn(0), Right: PairConstant(frel.Num(fuzzy.Tri(0, 10, 20)))},
		{Kind: StepCompare, Op: fuzzy.OpEq, Left: LeftColumn(0), Right: RightColumn(0)}, // 0 for disjoint
		{Kind: StepCompare, Op: fuzzy.OpEq, Left: LeftColumn(0), Right: LeftColumn(9)},
	}
	prog, err := CompilePair(steps)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 3 {
		t.Fatalf("Len = %d", prog.Len())
	}
	l := []frel.Value{frel.Crisp(15)}
	if d := prog.EvalAnd(l, []frel.Value{frel.Crisp(100)}, 0); d != 0 {
		t.Fatalf("short-circuit: d=%v, want 0", d)
	}
	// All conjuncts positive: the minimum of every one.
	two, err := CompilePair(steps[:2])
	if err != nil {
		t.Fatal(err)
	}
	if d, want := two.EvalAnd(l, l, 0), fuzzy.Le(fuzzy.Crisp(15), fuzzy.Tri(0, 10, 20)); d != want || d <= 0 || d >= 1 {
		t.Fatalf("full conjunction: d=%v, want %v", d, want)
	}
	empty, err := CompilePair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := empty.EvalAnd(l, l, 0); d != 1 {
		t.Fatalf("empty conjunction: d=%v, want 1", d)
	}
	// A floor stops the conjunction once the running minimum (0.5 after the
	// first conjunct) is below it, before the panicking third conjunct; a
	// minimum exactly at the floor is not below it and goes on.
	skip, err := CompilePair([]PairStep{steps[0], steps[2]})
	if err != nil {
		t.Fatal(err)
	}
	if d := skip.EvalAnd(l, l, 0.6); d != 0.5 {
		t.Fatalf("floor 0.6: d=%v, want the 0.5 it stopped at", d)
	}
	if d := two.EvalAnd(l, l, 0.5); d != 0.5 {
		t.Fatalf("floor at the minimum: d=%v, want 0.5", d)
	}
}

// TestCompilePairErrors exercises the compile-time rejections.
func TestCompilePairErrors(t *testing.T) {
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.Op(99), Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepKind(99), Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("unknown step kind accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpEq, Left: PairOperand{Side: 7}, Right: RightColumn(0)}}); err == nil {
		t.Error("unknown left side accepted")
	}
	if _, err := CompilePair([]PairStep{{Kind: StepCompare, Op: fuzzy.OpEq, Left: LeftColumn(0), Right: PairOperand{Side: 7}}}); err == nil {
		t.Error("unknown right side accepted")
	}
	bad := fuzzy.Trapezoid{A: 3, B: 2, C: 1, D: 0}
	if _, err := CompilePair([]PairStep{{Kind: StepNear, Tol: bad, Left: LeftColumn(0), Right: RightColumn(0)}}); err == nil {
		t.Error("invalid NEAR tolerance accepted")
	}
}

// TestCoalesce covers the morsel packer: grain respected, boundaries
// preserved, degenerate inputs.
func TestCoalesce(t *testing.T) {
	if m := Coalesce(0, func(int) int { return 1 }, 4); m != nil {
		t.Fatalf("n=0: %v", m)
	}
	// Ten unit-weight items at grain 4: morsels of 4, 4, 2.
	ms := Coalesce(10, func(int) int { return 1 }, 4)
	want := []Morsel{{0, 4}, {4, 8}, {8, 10}}
	if len(ms) != len(want) {
		t.Fatalf("morsels = %v, want %v", ms, want)
	}
	for i := range ms {
		if ms[i] != want[i] {
			t.Fatalf("morsels = %v, want %v", ms, want)
		}
	}
	// Morsels tile [0, n) exactly.
	prev := 0
	for _, m := range ms {
		if m.Lo != prev || m.Hi <= m.Lo {
			t.Fatalf("bad tiling: %v", ms)
		}
		prev = m.Hi
	}
	// A heavy item closes its morsel immediately; zero/negative weights
	// count as 1 so progress is guaranteed.
	ms = Coalesce(3, func(i int) int { return []int{100, 0, -5}[i] }, 4)
	if len(ms) != 2 || ms[0] != (Morsel{0, 1}) || ms[1] != (Morsel{1, 3}) {
		t.Fatalf("heavy item: %v", ms)
	}
	// Non-positive grain: one item per morsel.
	if ms := Coalesce(3, func(int) int { return 1 }, 0); len(ms) != 3 {
		t.Fatalf("grain 0: %v", ms)
	}
}
