package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestToleranceShape(t *testing.T) {
	tol := Tolerance(1, 3)
	if tol != (Trapezoid{-3, -1, 1, 3}) {
		t.Errorf("Tolerance = %v", tol)
	}
	if Tolerance(0, 0) != Crisp(0) {
		t.Errorf("zero tolerance should be crisp zero")
	}
	// Negative core is normalized; support below core is clamped.
	if Tolerance(-2, 1) != (Trapezoid{-2, -2, 2, 2}) {
		t.Errorf("Tolerance(-2,1) = %v", Tolerance(-2, 1))
	}
}

func TestApproxEqExactTolIsEq(t *testing.T) {
	u := Trap(20, 25, 30, 35)
	v := Tri(30, 35, 40)
	if got, want := ApproxEq(u, v, Crisp(0)), Eq(u, v); !almostEq(got, want) {
		t.Errorf("ApproxEq with zero tolerance = %g, want Eq = %g", got, want)
	}
}

func TestApproxEqCrispBandJoin(t *testing.T) {
	// Crisp values with a crisp band [-w, +w]: the band join predicate
	// |x - y| <= w.
	band := Interval(-5, 5)
	tests := []struct {
		x, y float64
		want float64
	}{
		{10, 13, 1}, // |diff| = 3 <= 5
		{10, 15, 1}, // boundary
		{10, 16, 0},
		{16, 10, 0},
	}
	for _, tc := range tests {
		if got := ApproxEq(Crisp(tc.x), Crisp(tc.y), band); got != tc.want {
			t.Errorf("ApproxEq(%g, %g, band 5) = %g, want %g", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestApproxEqWidensMatches(t *testing.T) {
	u := Tri(0, 1, 2)
	v := Tri(4, 5, 6) // disjoint from u
	if Eq(u, v) != 0 {
		t.Fatalf("setup: expected disjoint")
	}
	if got := ApproxEq(u, v, Tolerance(0, 1)); got != 0 {
		t.Errorf("small tolerance should not connect them: %g", got)
	}
	if got := ApproxEq(u, v, Tolerance(4, 6)); got != 1 {
		t.Errorf("wide tolerance should fully connect them: %g", got)
	}
	mid := ApproxEq(u, v, Tolerance(1, 4))
	if mid <= 0 || mid >= 1 {
		t.Errorf("intermediate tolerance should partially connect: %g", mid)
	}
}

// supMin computes sup_{x,y} min(µ_U(x), µ_V(y), µ_tol(x − y)) by a grid
// search over the two supports, steps cells per axis: a lower bound that
// converges from below.
func supMin(u, v, tol Trapezoid, steps int) float64 {
	uLo, uHi := u.Support()
	vLo, vHi := v.Support()
	du := (uHi - uLo) / float64(steps)
	dv := (vHi - vLo) / float64(steps)
	best := 0.0
	for i := 0; i <= steps; i++ {
		x := uLo + float64(i)*du
		mu := u.Mu(x)
		if mu <= best {
			continue
		}
		for j := 0; j <= steps; j++ {
			y := vLo + float64(j)*dv
			if g := Min(mu, v.Mu(y), tol.Mu(x-y)); g > best {
				best = g
			}
		}
	}
	return best
}

// TestApproxEqMatchesSupMin: the convolution identity against the numeric
// sup-min with µ_θ(x, y) = µ_tol(x − y).
func TestApproxEqMatchesSupMin(t *testing.T) {
	shapes := []Trapezoid{Crisp(3), Tri(0, 2, 4), Trap(1, 2, 6, 9), Interval(2, 5)}
	tols := []Trapezoid{Crisp(0), Tolerance(0, 2), Tolerance(1, 3)}
	for _, u := range shapes {
		for _, v := range shapes {
			for _, tol := range tols {
				want := supMin(u, v, tol, 300)
				got := ApproxEq(u, v, tol)
				if math.Abs(got-want) > 0.03 {
					t.Errorf("ApproxEq(%v, %v, %v) = %g, sup-min says %g", u, v, tol, got, want)
				}
			}
		}
	}
}

func TestQuickApproxEqAtLeastEq(t *testing.T) {
	f := func(vals [8]float64, w uint8) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		tol := Tolerance(0, float64(w%10))
		// Widening can only increase the degree.
		return ApproxEq(u, v, tol) >= Eq(u, v)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickApproxEqSymmetricTolerance(t *testing.T) {
	f := func(vals [8]float64, c, w uint8) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		tol := Tolerance(float64(c%5), float64(c%5)+float64(w%5))
		// A symmetric tolerance keeps approximate equality symmetric.
		return almostEq(ApproxEq(u, v, tol), ApproxEq(v, u, tol))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
