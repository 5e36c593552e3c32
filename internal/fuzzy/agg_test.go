package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func members(vs ...Trapezoid) []Trapezoid { return vs }

func TestAggregateCount(t *testing.T) {
	got, ok := Aggregate(AggCount, members(Crisp(1), Crisp(2), Tri(0, 1, 2)))
	if !ok || got != Crisp(3) {
		t.Errorf("COUNT = %v, %v; want 3, true", got, ok)
	}
	// COUNT of the empty set is 0, not NULL (Section 6).
	got, ok = Aggregate(AggCount, nil)
	if !ok || got != Crisp(0) {
		t.Errorf("COUNT(empty) = %v, %v; want 0, true", got, ok)
	}
}

func TestAggregateEmptyIsNull(t *testing.T) {
	for _, f := range []AggFunc{AggSum, AggAvg, AggMin, AggMax} {
		if _, ok := Aggregate(f, nil); ok {
			t.Errorf("%v(empty): ok = true, want NULL", f)
		}
	}
}

func TestAggregateSum(t *testing.T) {
	got, ok := Aggregate(AggSum, members(Trap(1, 2, 3, 4), Trap(10, 20, 30, 40)))
	if !ok || got != (Trapezoid{11, 22, 33, 44}) {
		t.Errorf("SUM = %v, %v", got, ok)
	}
}

func TestAggregateAvg(t *testing.T) {
	got, ok := Aggregate(AggAvg, members(Crisp(10), Crisp(20), Crisp(30)))
	if !ok || got != Crisp(20) {
		t.Errorf("AVG = %v, %v; want 20", got, ok)
	}
	got, ok = Aggregate(AggAvg, members(Trap(0, 0, 2, 2), Trap(2, 2, 4, 4)))
	if !ok || got != (Trapezoid{1, 1, 3, 3}) {
		t.Errorf("AVG = %v, %v; want [1,1,3,3]", got, ok)
	}
}

// TestAggregateMinMaxDefuzzified: MIN and MAX order fuzzy values by the
// center of their 1-cuts (Section 6) and return the original distribution.
func TestAggregateMinMaxDefuzzified(t *testing.T) {
	a := Tri(0, 10, 30)   // centroid 10
	b := Trap(5, 6, 8, 9) // centroid 7
	c := Crisp(12)        // centroid 12
	set := members(a, b, c)
	if got, ok := Aggregate(AggMin, set); !ok || got != b {
		t.Errorf("MIN = %v, %v; want %v", got, ok, b)
	}
	if got, ok := Aggregate(AggMax, set); !ok || got != c {
		t.Errorf("MAX = %v, %v; want %v", got, ok, c)
	}
}

func TestAggregateSingleton(t *testing.T) {
	v := Tri(1, 2, 3)
	for _, f := range []AggFunc{AggSum, AggAvg, AggMin, AggMax} {
		got, ok := Aggregate(f, members(v))
		if !ok || got != v {
			t.Errorf("%v({v}) = %v, %v; want v", f, got, ok)
		}
	}
}

// TestAggregateMinMaxTieDeterministic: values with equal centroids (the
// defuzzification can tie) must select the same value regardless of input
// order.
func TestAggregateMinMaxTieDeterministic(t *testing.T) {
	a := Tri(3, 4, 5)     // centroid 4
	b := Trap(2, 3, 5, 6) // centroid 4
	c := Crisp(9)
	for _, f := range []AggFunc{AggMin, AggMax} {
		r1, _ := Aggregate(f, members(a, b, c))
		r2, _ := Aggregate(f, members(c, b, a))
		r3, _ := Aggregate(f, members(b, c, a))
		if r1 != r2 || r2 != r3 {
			t.Errorf("%v not order-independent: %v %v %v", f, r1, r2, r3)
		}
	}
	mn, _ := Aggregate(AggMin, members(a, b))
	if mn != b {
		t.Errorf("MIN tie = %v, want the corner-wise smaller %v", mn, b)
	}
}

// TestAggregateMinMaxSignedZero: a crisp -0 and a crisp +0 tie on the
// centroid and on every corner; MIN returns -0 and MAX +0 in either input
// order.
func TestAggregateMinMaxSignedZero(t *testing.T) {
	neg, pos := Crisp(math.Copysign(0, -1)), Crisp(0)
	for _, set := range [][]Trapezoid{{neg, pos}, {pos, neg}, {Crisp(5), pos, neg}} {
		if mn, _ := Aggregate(AggMin, set); mn.A != 0 || !math.Signbit(mn.A) || !math.Signbit(mn.D) {
			t.Errorf("MIN%v = %v, want -0", set, mn)
		}
	}
	for _, set := range [][]Trapezoid{{neg, pos}, {pos, neg}, {Crisp(-5), neg, pos}} {
		if mx, _ := Aggregate(AggMax, set); mx.A != 0 || math.Signbit(mx.A) || math.Signbit(mx.D) {
			t.Errorf("MAX%v = %v, want +0", set, mx)
		}
	}
	// Only the sign of a corner that ties numerically decides.
	a, b := Trap(math.Copysign(0, -1), 1, 2, 3), Trap(0, 1, 2, 3)
	for _, set := range [][]Trapezoid{{a, b}, {b, a}} {
		if mn, _ := Aggregate(AggMin, set); mn != a || !math.Signbit(mn.A) {
			t.Errorf("MIN%v = %v, want the one with corner -0", set, mn)
		}
	}
}

func TestAggFuncString(t *testing.T) {
	tests := []struct {
		f    AggFunc
		want string
	}{
		{AggCount, "COUNT"}, {AggSum, "SUM"}, {AggAvg, "AVG"}, {AggMin, "MIN"}, {AggMax, "MAX"},
	}
	for _, tc := range tests {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestParseAggFunc(t *testing.T) {
	for _, s := range []string{"count", "COUNT", "Count"} {
		if got, err := ParseAggFunc(s); err != nil || got != AggCount {
			t.Errorf("ParseAggFunc(%q) = %v, %v", s, got, err)
		}
	}
	for _, tc := range []struct {
		in   string
		want AggFunc
	}{{"sum", AggSum}, {"avg", AggAvg}, {"min", AggMin}, {"max", AggMax}} {
		if got, err := ParseAggFunc(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Errorf("ParseAggFunc(median): want error")
	}
}

func TestQuickSumCentroid(t *testing.T) {
	f := func(vals [12]float64) bool {
		set := members(
			randomTrap(vals[0], vals[1], vals[2], vals[3]),
			randomTrap(vals[4], vals[5], vals[6], vals[7]),
			randomTrap(vals[8], vals[9], vals[10], vals[11]),
		)
		sum, ok := Aggregate(AggSum, set)
		if !ok {
			return false
		}
		want := 0.0
		for _, m := range set {
			want += m.Centroid()
		}
		return almostEq(sum.Centroid(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAvgBetweenMinMax(t *testing.T) {
	f := func(vals [12]float64) bool {
		set := members(
			randomTrap(vals[0], vals[1], vals[2], vals[3]),
			randomTrap(vals[4], vals[5], vals[6], vals[7]),
			randomTrap(vals[8], vals[9], vals[10], vals[11]),
		)
		avg, _ := Aggregate(AggAvg, set)
		mn, _ := Aggregate(AggMin, set)
		mx, _ := Aggregate(AggMax, set)
		return mn.Centroid()-1e-9 <= avg.Centroid() && avg.Centroid() <= mx.Centroid()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinMaxReturnElement(t *testing.T) {
	f := func(vals [8]float64) bool {
		a := randomTrap(vals[0], vals[1], vals[2], vals[3])
		b := randomTrap(vals[4], vals[5], vals[6], vals[7])
		set := members(a, b)
		mn, _ := Aggregate(AggMin, set)
		mx, _ := Aggregate(AggMax, set)
		isElem := func(v Trapezoid) bool { return v == a || v == b }
		return isElem(mn) && isElem(mx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
