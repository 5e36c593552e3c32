package frel

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fuzzy"
)

func TestValueConstructors(t *testing.T) {
	v := Crisp(7)
	if v.Kind != KindNumber || !v.Num.IsCrisp() || v.Num.A != 7 {
		t.Errorf("Crisp(7) = %+v", v)
	}
	s := Str("Ann")
	if s.Kind != KindString || s.Str != "Ann" {
		t.Errorf("Str = %+v", s)
	}
	n := Num(fuzzy.Tri(1, 2, 3))
	if n.Kind != KindNumber || n.Num != fuzzy.Tri(1, 2, 3) {
		t.Errorf("Num = %+v", n)
	}
}

func TestValueIdentical(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Crisp(1), Crisp(1), true},
		{Crisp(1), Crisp(2), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Crisp(1), Str("1"), false},
		{Num(fuzzy.Tri(1, 2, 3)), Num(fuzzy.Tri(1, 2, 3)), true},
		{Num(fuzzy.Tri(1, 2, 3)), Num(fuzzy.Tri(1, 2, 4)), false},
		// Identity is bitwise, like Key: the two zeros differ, a NaN
		// corner is itself.
		{Crisp(0), Crisp(math.Copysign(0, -1)), false},
		{Crisp(math.NaN()), Crisp(math.NaN()), true},
		{Crisp(math.NaN()), Crisp(1), false},
	}
	for _, tc := range tests {
		if got := tc.a.Identical(tc.b); got != tc.want {
			t.Errorf("Identical(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.a.Key() == tc.b.Key(); got != tc.want {
			t.Errorf("Key(%v) == Key(%v) is %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if got := Str("Ann").String(); got != `"Ann"` {
		t.Errorf("String = %q", got)
	}
	if got := Crisp(28).String(); got != "28" {
		t.Errorf("String = %q", got)
	}
}

func TestValueDegreeStrings(t *testing.T) {
	tests := []struct {
		op   fuzzy.Op
		a, b string
		want float64
	}{
		{fuzzy.OpEq, "Ann", "Ann", 1},
		{fuzzy.OpEq, "Ann", "Bob", 0},
		{fuzzy.OpNe, "Ann", "Bob", 1},
		{fuzzy.OpNe, "Ann", "Ann", 0},
		{fuzzy.OpLt, "Ann", "Bob", 1},
		{fuzzy.OpLt, "Bob", "Ann", 0},
		{fuzzy.OpLe, "Ann", "Ann", 1},
		{fuzzy.OpGt, "Bob", "Ann", 1},
		{fuzzy.OpGe, "Ann", "Ann", 1},
		{fuzzy.OpGe, "Ann", "Bob", 0},
	}
	for _, tc := range tests {
		if got := Degree(tc.op, Str(tc.a), Str(tc.b)); got != tc.want {
			t.Errorf("Degree(%v, %q, %q) = %g, want %g", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueDegreeNumbers(t *testing.T) {
	u := Num(fuzzy.Trap(20, 25, 30, 35))
	v := Num(fuzzy.Tri(30, 35, 40))
	if got := Degree(fuzzy.OpEq, u, v); got != 0.5 {
		t.Errorf("Degree(=) = %g, want 0.5 (paper Fig. 1)", got)
	}
}

func TestValueDegreeMixedKindsZero(t *testing.T) {
	if got := Degree(fuzzy.OpEq, Crisp(1), Str("1")); got != 0 {
		t.Errorf("mixed-kind degree = %g, want 0", got)
	}
}

func TestValueCompare(t *testing.T) {
	checkCompare(t, []compareCase{
		{Crisp(1), Crisp(2), -1},
		{Crisp(2), Crisp(1), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Crisp(1), Str("a"), -1},
		{Str("a"), Crisp(1), 1},
		{Num(fuzzy.Interval(1, 5)), Num(fuzzy.Interval(1, 6)), -1},
	})
}

// TestCompare checks the order of fuzzy numbers: ≼ on the support first,
// then the core, then the bit patterns of the corners.
func TestCompare(t *testing.T) {
	negZero := math.Copysign(0, -1)
	checkCompare(t, []compareCase{
		{Crisp(1), Crisp(2), -1},
		{Crisp(2), Crisp(1), 1},
		{Crisp(1), Crisp(1), 0},
		// ≼ first: support begin, then support end.
		{Num(fuzzy.Interval(1, 5)), Num(fuzzy.Interval(1, 6)), -1},
		{Num(fuzzy.Interval(1, 6)), Num(fuzzy.Interval(1, 5)), 1},
		{Num(fuzzy.Trap(0, 9, 9, 9)), Num(fuzzy.Trap(1, 1, 1, 2)), -1},
		// Equal supports: the core, B then C.
		{Num(fuzzy.Trap(1, 2, 3, 4)), Num(fuzzy.Trap(1, 3, 3, 4)), -1},
		{Num(fuzzy.Trap(1, 2, 3, 4)), Num(fuzzy.Trap(1, 2, 2, 4)), 1},
		// Numerically equal corners: the bit patterns, −0 before +0.
		{Crisp(negZero), Crisp(0), -1},
		{Crisp(0), Crisp(negZero), 1},
		{Crisp(negZero), Crisp(negZero), 0},
		{Num(fuzzy.Tri(negZero, 1, 2)), Num(fuzzy.Tri(0, 1, 2)), -1},
	})
}

type compareCase struct {
	a, b Value
	want int
}

// checkCompare checks each case against Compare and, for values of one
// kind, against CompareKeys on their sort keys.
func checkCompare(t *testing.T, tests []compareCase) {
	t.Helper()
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		ka, kb := ValueSortKey(tc.a), ValueSortKey(tc.b)
		if tc.a.Kind == tc.b.Kind {
			if got := CompareKeys(&ka, &kb); got != tc.want {
				t.Errorf("CompareKeys(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
		}
	}
}

// TestCompareDefinition31 checks the ordering example of the paper
// (Example 3.1): [20,28] ≺ [20,35] ≺ [30,35], and for S-values
// [20,25] ≺ [30,40] ≺ [32,34].
func TestCompareDefinition31(t *testing.T) {
	for _, vs := range [][3]Value{
		{Num(fuzzy.Interval(20, 28)), Num(fuzzy.Interval(20, 35)), Num(fuzzy.Interval(30, 35))},
		{Num(fuzzy.Interval(20, 25)), Num(fuzzy.Interval(30, 40)), Num(fuzzy.Interval(32, 34))},
	} {
		if !(Compare(vs[0], vs[1]) < 0 && Compare(vs[1], vs[2]) < 0) {
			t.Errorf("want %v < %v < %v under Definition 3.1", vs[0], vs[1], vs[2])
		}
	}
}

// Fuzzy values sort by the Definition 3.1 interval order: first by the
// begin of the support, then by its end (Example 3.1 of the paper).
func ExampleCompare() {
	r1 := Num(fuzzy.Interval(30, 35))
	r2 := Num(fuzzy.Interval(20, 28))
	r3 := Num(fuzzy.Interval(20, 35))
	fmt.Println(Compare(r2, r3), Compare(r3, r1))
	// Output:
	// -1 -1
}

// quickValue derives a value from arbitrary inputs, drawing corners from a
// small set with both zeros so that ties on ≼ and on every corner are
// common.
func quickValue(corners [4]uint8, s string, pick uint8) Value {
	if pick%4 == 0 {
		return Str(s)
	}
	pool := [...]float64{math.Copysign(0, -1), 0, 1, 2, 3}
	var xs [4]float64
	for i, c := range corners {
		xs[i] = pool[int(c)%len(pool)]
	}
	slices.Sort(xs[:])
	return Num(fuzzy.Trapezoid{A: xs[0], B: xs[1], C: xs[2], D: xs[3]})
}

// TestQuickCompareAntisymmetric: Compare is antisymmetric and agrees with
// CompareKeys on the values' sort keys.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(c1, c2 [4]uint8, s1, s2 string, p1, p2 uint8) bool {
		v, w := quickValue(c1, s1, p1), quickValue(c2, s2, p2)
		c := Compare(v, w)
		if c != -Compare(w, v) {
			return false
		}
		if v.Kind != w.Kind {
			return true
		}
		kv, kw := ValueSortKey(v), ValueSortKey(w)
		return CompareKeys(&kv, &kw) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareTotalOrder: Compare ties exactly the identical values, so
// no two distinct values are left unordered.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(c1, c2 [4]uint8, s1, s2 string, p1, p2 uint8) bool {
		v, w := quickValue(c1, s1, p1), quickValue(c2, s2, p2)
		return (Compare(v, w) == 0) == v.Identical(w) && Compare(v, v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareTransitive: any three values sorted pairwise by Compare
// are in order, so Compare is a total order.
func TestQuickCompareTransitive(t *testing.T) {
	f := func(cs [3][4]uint8, ss [3]string, ps [3]uint8) bool {
		vs := make([]Value, 3)
		for i := range vs {
			vs[i] = quickValue(cs[i], ss[i], ps[i])
		}
		slices.SortFunc(vs, Compare)
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b float64, s1, s2 string) bool {
		t1 := NewTuple(1, Crisp(a), Str(s1))
		t2 := NewTuple(1, Crisp(b), Str(s2))
		if t1.IdenticalValues(t2) {
			return t1.Key() == t2.Key()
		}
		return t1.Key() != t2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
