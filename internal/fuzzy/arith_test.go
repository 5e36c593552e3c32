package fuzzy

import (
	"testing"
	"testing/quick"
)

// TestAddPaperExample checks the Section 6 example: for x with 0-cut
// [x1, x4] and 1-cut [x2, x3] and y likewise, x + y has 0-cut
// [x1+y1, x4+y4] and 1-cut [x2+y2, x3+y3].
func TestAddPaperExample(t *testing.T) {
	x := Trap(1, 2, 3, 4)
	y := Trap(10, 20, 30, 40)
	got := Add(x, y)
	want := Trapezoid{11, 22, 33, 44}
	if got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
}

func TestAddCrisp(t *testing.T) {
	if got := Add(Crisp(2), Crisp(3)); got != Crisp(5) {
		t.Errorf("Add(2, 3) = %v, want 5", got)
	}
}

func TestSub(t *testing.T) {
	x := Trap(1, 2, 3, 4)
	y := Trap(10, 20, 30, 40)
	got := Sub(y, x)
	want := Trapezoid{6, 17, 28, 39}
	if got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if !got.Valid() {
		t.Errorf("Sub result invalid: %v", got)
	}
}

func TestNeg(t *testing.T) {
	got := Neg(Trap(1, 2, 3, 4))
	want := Trapezoid{-4, -3, -2, -1}
	if got != want {
		t.Errorf("Neg = %v, want %v", got, want)
	}
}

func TestScale(t *testing.T) {
	x := Trap(2, 4, 6, 8)
	if got := Scale(x, 0.5); got != (Trapezoid{1, 2, 3, 4}) {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := Scale(x, -1); got != (Trapezoid{-8, -6, -4, -2}) {
		t.Errorf("Scale(-1) = %v", got)
	}
	if got := Scale(x, 0); got != Crisp(0) {
		t.Errorf("Scale(0) = %v", got)
	}
}

func TestQuickAddValidAndCommutative(t *testing.T) {
	f := func(vals [8]float64) bool {
		x := randomTrap(vals[0], vals[1], vals[2], vals[3])
		y := randomTrap(vals[4], vals[5], vals[6], vals[7])
		s := Add(x, y)
		return s.Valid() && s == Add(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubAddInverseOnCrisp(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := Crisp(float64(int(a)%1000)), Crisp(float64(int(b)%1000))
		return Add(Sub(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCentroidAdditive(t *testing.T) {
	f := func(vals [8]float64) bool {
		x := randomTrap(vals[0], vals[1], vals[2], vals[3])
		y := randomTrap(vals[4], vals[5], vals[6], vals[7])
		return almostEq(Add(x, y).Centroid(), x.Centroid()+y.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickScaleLinear(t *testing.T) {
	f := func(vals [4]float64, kRaw int8) bool {
		x := randomTrap(vals[0], vals[1], vals[2], vals[3])
		k := float64(kRaw) / 16
		s := Scale(x, k)
		return s.Valid() && almostEq(s.Centroid(), k*x.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
