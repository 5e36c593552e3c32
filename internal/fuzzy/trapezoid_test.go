package fuzzy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9
}

func TestCrisp(t *testing.T) {
	c := Crisp(28)
	if !c.IsCrisp() {
		t.Fatalf("Crisp(28).IsCrisp() = false")
	}
	if got := c.Mu(28); got != 1 {
		t.Errorf("Mu(28) = %g, want 1", got)
	}
	if got := c.Mu(27.999); got != 0 {
		t.Errorf("Mu(27.999) = %g, want 0", got)
	}
	lo, hi := c.Support()
	if lo != 28 || hi != 28 {
		t.Errorf("Support() = [%g, %g], want [28, 28]", lo, hi)
	}
}

func TestTrapConstructors(t *testing.T) {
	tests := []struct {
		name string
		got  Trapezoid
		want Trapezoid
	}{
		{"Tri", Tri(30, 35, 40), Trapezoid{30, 35, 35, 40}},
		{"About", About(35, 5), Trapezoid{30, 35, 35, 40}},
		{"Interval", Interval(20, 35), Trapezoid{20, 20, 35, 35}},
		{"Trap", Trap(20, 25, 30, 35), Trapezoid{20, 25, 30, 35}},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestTrapPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Trap(35,25,30,20) did not panic")
		}
	}()
	Trap(35, 25, 30, 20)
}

func TestNewTrap(t *testing.T) {
	if _, err := NewTrap(1, 2, 3, 4); err != nil {
		t.Errorf("NewTrap(1,2,3,4) error: %v", err)
	}
	if _, err := NewTrap(1, 0, 3, 4); err == nil {
		t.Errorf("NewTrap(1,0,3,4): want error, got nil")
	}
	if _, err := NewTrap(math.NaN(), 0, 3, 4); err == nil {
		t.Errorf("NewTrap(NaN,...): want error, got nil")
	}
	if _, err := NewTrap(math.Inf(-1), 0, 3, 4); err == nil {
		t.Errorf("NewTrap(-Inf,...): want error, got nil")
	}
}

// TestMuMediumYoung checks the membership values the paper reads off Fig. 1
// for "medium young" = TRAP(20, 25, 30, 35): ages 25..30 are full members,
// 24 and 31 have degree 0.8, 23 and 32 have 0.6, and anything outside
// (20, 35) has 0.
func TestMuMediumYoung(t *testing.T) {
	my := Trap(20, 25, 30, 35)
	tests := []struct {
		x    float64
		want float64
	}{
		{25, 1}, {27, 1}, {30, 1},
		{24, 0.8}, {31, 0.8},
		{23, 0.6}, {32, 0.6},
		{20, 0}, {35, 0},
		{19, 0}, {36, 0}, {-5, 0}, {100, 0},
		{22.5, 0.5}, {32.5, 0.5},
	}
	for _, tc := range tests {
		if got := my.Mu(tc.x); !almostEq(got, tc.want) {
			t.Errorf("Mu(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	if got := Trap(20, 25, 30, 35).Centroid(); !almostEq(got, 27.5) {
		t.Errorf("Centroid = %g, want 27.5", got)
	}
	if got := Crisp(7).Centroid(); got != 7 {
		t.Errorf("Crisp(7).Centroid = %g, want 7", got)
	}
	if got := Tri(0, 4, 20).Centroid(); got != 4 {
		t.Errorf("Tri(0,4,20).Centroid = %g, want 4", got)
	}
}

func TestWidth(t *testing.T) {
	if got := Crisp(3).Width(); got != 0 {
		t.Errorf("Crisp width = %g, want 0", got)
	}
	if got := Trap(20, 25, 30, 35).Width(); got != 15 {
		t.Errorf("Trap width = %g, want 15", got)
	}
}

func TestIntersects(t *testing.T) {
	tests := []struct {
		a, b Trapezoid
		want bool
	}{
		{Trap(0, 1, 2, 3), Trap(2, 2, 2, 2), true},
		{Trap(0, 1, 2, 3), Trap(3, 4, 5, 6), true}, // touch at endpoint
		{Trap(0, 1, 2, 3), Trap(4, 5, 6, 7), false},
		{Crisp(5), Crisp(5), true},
		{Crisp(5), Crisp(6), false},
	}
	for _, tc := range tests {
		if got := tc.a.Intersects(tc.b); got != tc.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(tc.a); got != tc.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := Crisp(28).String(); got != "28" {
		t.Errorf("String = %q, want \"28\"", got)
	}
	if got := Trap(20, 25, 30, 35).String(); got != "TRAP(20,25,30,35)" {
		t.Errorf("String = %q", got)
	}
}

// randomTrap derives a valid trapezoid from four arbitrary floats.
func randomTrap(a, b, c, d float64) Trapezoid {
	norm := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 100)
	}
	xs := []float64{norm(a), norm(b), norm(c), norm(d)}
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] < xs[i] {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	}
	return Trapezoid{xs[0], xs[1], xs[2], xs[3]}
}

func TestQuickMuRange(t *testing.T) {
	f := func(a, b, c, d, x float64) bool {
		tr := randomTrap(a, b, c, d)
		m := tr.Mu(math.Mod(x, 200))
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	valid := []Trapezoid{Crisp(0), Trap(1, 1, 1, 2), Interval(-4, -1)}
	for _, tr := range valid {
		if !tr.Valid() {
			t.Errorf("%v.Valid() = false, want true", tr)
		}
	}
	invalid := []Trapezoid{
		{2, 1, 3, 4},
		{1, 2, 4, 3},
		{math.NaN(), 1, 2, 3},
		{1, 2, 3, math.Inf(1)},
	}
	for _, tr := range invalid {
		if tr.Valid() {
			t.Errorf("%+v.Valid() = true, want false", tr)
		}
	}
}

// TestStringMatchesPercentG pins String to the fmt %g rendering it
// replaced, corner for corner: signed zeros, infinities, NaN, the smallest
// subnormal, the largest float, both sides of %g's switch to exponent
// form, crisp and TRAP values, and random bit patterns.
func TestStringMatchesPercentG(t *testing.T) {
	want := func(x Trapezoid) string {
		if x.IsCrisp() {
			return fmt.Sprintf("%g", x.A)
		}
		return fmt.Sprintf("TRAP(%g,%g,%g,%g)", x.A, x.B, x.C, x.D)
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e20, 1e21, -1e20, -1e21, 123456789012345678901, 1e-4, 1e-5, 0.1, 1, -1.5, 100, 1e6, 1e7,
	}
	check := func(x Trapezoid) {
		t.Helper()
		if got, w := x.String(), want(x); got != w {
			t.Errorf("String(%#v) = %q, %%g gives %q", x, got, w)
		}
	}
	for _, a := range specials {
		check(Crisp(a))
		for _, b := range specials {
			check(Trapezoid{A: a, B: b, C: a, D: b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		c := [4]float64{}
		for j := range c {
			c[j] = math.Float64frombits(rng.Uint64())
		}
		check(Trapezoid{A: c[0], B: c[1], C: c[2], D: c[3]})
		check(Crisp(c[0]))
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20)) // ordinary magnitudes as well
		check(Trapezoid{A: v, B: v + 1, C: v + 2.5, D: v * 3})
		check(Crisp(v))
	}
}
