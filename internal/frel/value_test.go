package frel

import (
	"math"
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
	tests := []struct {
		a, b Value
		want int
	}{
		{Crisp(1), Crisp(2), -1},
		{Crisp(2), Crisp(1), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Crisp(1), Str("a"), -1},
		{Str("a"), Crisp(1), 1},
		{Num(fuzzy.Interval(1, 5)), Num(fuzzy.Interval(1, 6)), -1},
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64, s1, s2 string, pick uint8) bool {
		var v, w Value
		switch pick % 3 {
		case 0:
			v, w = Crisp(float64(int(a)%100)), Crisp(float64(int(b)%100))
		case 1:
			v, w = Str(s1), Str(s2)
		default:
			v, w = Crisp(float64(int(a)%100)), Str(s2)
		}
		return Compare(v, w) == -Compare(w, v)
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
