// Package fuzzy implements the possibility-distribution substrate of the
// fuzzy relational database described in Yang et al., "Efficient Processing
// of Nested Fuzzy SQL Queries in a Fuzzy Database" (TKDE 13(6), 2001; ICDE
// 1995).
//
// Ill-known data values are represented by possibility distributions with
// trapezoidal membership functions (Section 2.1 of the paper; triangular and
// rectangular shapes are special cases). The package provides:
//
//   - Trapezoid, the distribution type, with membership evaluation and
//     α-cuts;
//   - satisfaction degrees d(X θ Y) for θ in {=, ≠, <, ≤, >, ≥}
//     (Section 2.2), computed in closed form;
//   - the interval order ≼ of Definition 3.1 used by the extended
//     merge-join;
//   - fuzzy arithmetic and the defuzzification used by aggregate functions
//     (Section 6);
//   - set-membership and quantified degrees d(v in F), d(v θ ALL F)
//     (Sections 4 and 7);
//   - discrete possibility distributions (Appendix).
//
// All degrees are float64 values in [0, 1].
package fuzzy

import (
	"fmt"
	"math"
	"strconv"
)

// Trapezoid is a possibility distribution with a trapezoidal membership
// function. Its support (0-cut) is the interval [A, D] and its core (1-cut)
// is [B, C]; membership rises linearly on [A, B] and falls linearly on
// [C, D]. The invariant A ≤ B ≤ C ≤ D must hold; use Valid to check it.
//
// A crisp value v is the degenerate trapezoid (v, v, v, v); a triangular
// distribution has B == C; a rectangular (interval) distribution has
// A == B and C == D.
type Trapezoid struct {
	A, B, C, D float64
}

// Crisp returns the degenerate distribution of a precisely known value v,
// i.e. µ(x) = 1 iff x == v (Section 2.2 of the paper).
func Crisp(v float64) Trapezoid {
	return Trapezoid{v, v, v, v}
}

// Tri returns a triangular distribution peaking at peak with the given
// support endpoints.
func Tri(lo, peak, hi float64) Trapezoid {
	return Trapezoid{lo, peak, peak, hi}
}

// About returns the triangular distribution "about v": full membership at v,
// falling to zero at v±spread. It models linguistic values such as
// "about 35" (Fig. 1 of the paper).
func About(v, spread float64) Trapezoid {
	return Tri(v-spread, v, v+spread)
}

// Interval returns the rectangular distribution that is fully possible on
// [lo, hi] and impossible elsewhere.
func Interval(lo, hi float64) Trapezoid {
	return Trapezoid{lo, lo, hi, hi}
}

// Trap returns the trapezoid (a, b, c, d). It panics if the shape invariant
// a ≤ b ≤ c ≤ d is violated; use NewTrap for a checked constructor.
func Trap(a, b, c, d float64) Trapezoid {
	t := Trapezoid{a, b, c, d}
	if !t.Valid() {
		panic(fmt.Sprintf("fuzzy: invalid trapezoid (%g, %g, %g, %g)", a, b, c, d))
	}
	return t
}

// NewTrap returns the trapezoid (a, b, c, d), or an error if the shape
// invariant a ≤ b ≤ c ≤ d is violated.
func NewTrap(a, b, c, d float64) (Trapezoid, error) {
	t := Trapezoid{a, b, c, d}
	if !t.Valid() {
		return Trapezoid{}, fmt.Errorf("fuzzy: invalid trapezoid (%g, %g, %g, %g): want a <= b <= c <= d", a, b, c, d)
	}
	return t, nil
}

// Valid reports whether the shape invariant A ≤ B ≤ C ≤ D holds and all
// corners are finite.
func (t Trapezoid) Valid() bool {
	if math.IsNaN(t.A) || math.IsNaN(t.B) || math.IsNaN(t.C) || math.IsNaN(t.D) {
		return false
	}
	if math.IsInf(t.A, 0) || math.IsInf(t.B, 0) || math.IsInf(t.C, 0) || math.IsInf(t.D, 0) {
		return false
	}
	return t.A <= t.B && t.B <= t.C && t.C <= t.D
}

// IsCrisp reports whether t is a degenerate single-point distribution.
func (t Trapezoid) IsCrisp() bool {
	return t.A == t.D
}

// Mu evaluates the membership function at x.
func (t Trapezoid) Mu(x float64) float64 {
	switch {
	case x < t.A || x > t.D:
		return 0
	case x >= t.B && x <= t.C:
		return 1
	case x < t.B:
		// Rising edge; t.B > t.A here because x ∈ [A, B) is non-empty.
		return (x - t.A) / (t.B - t.A)
	default:
		// Falling edge; t.D > t.C here.
		return (t.D - x) / (t.D - t.C)
	}
}

// Support returns the endpoints [b(v), e(v)] of the interval outside of
// which membership is zero. For a crisp value both endpoints equal the
// value itself (Section 3 of the paper).
func (t Trapezoid) Support() (lo, hi float64) {
	return t.A, t.D
}

// Params returns the four corner abscissae (a, b, c, d) of the membership
// function as plain float64s, the kernel-consumable flat form compiled
// degree kernels load into column slices.
func (t Trapezoid) Params() (a, b, c, d float64) {
	return t.A, t.B, t.C, t.D
}

// Core returns the endpoints of the 1-cut, the interval of fully possible
// values.
func (t Trapezoid) Core() (lo, hi float64) {
	return t.B, t.C
}

// Centroid returns the center of the 1-cut, the defuzzification used by the
// MIN and MAX aggregate functions of Fuzzy SQL (Section 6 of the paper).
func (t Trapezoid) Centroid() float64 {
	return (t.B + t.C) / 2
}

// Width returns the length of the support interval; 0 for crisp values.
func (t Trapezoid) Width() float64 {
	return t.D - t.A
}

// Intersects reports whether the supports of t and u overlap. Tuples whose
// join-attribute supports do not intersect cannot join (Section 3).
func (t Trapezoid) Intersects(u Trapezoid) bool {
	return t.A <= u.D && u.A <= t.D
}

// Equal reports whether t and u are the same distribution (corner-wise
// equality). This is the identity used by duplicate elimination, not the
// fuzzy possibility of equality — see Eq for the latter.
func (t Trapezoid) Equal(u Trapezoid) bool {
	return t == u
}

// String renders the distribution compactly: crisp values as the number,
// others as TRAP(a,b,c,d).
// Corners are written as fmt's %g writes them, without fmt.
func (t Trapezoid) String() string {
	return string(t.AppendTo(make([]byte, 0, 64)))
}

// AppendTo appends the distribution's text, as String renders it, to b
// and returns the extended buffer.
func (t Trapezoid) AppendTo(b []byte) []byte {
	if t.IsCrisp() {
		return appendCorner(b, t.A)
	}
	b = append(b, "TRAP("...)
	for i, c := range [4]float64{t.A, t.B, t.C, t.D} {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCorner(b, c)
	}
	return append(b, ')')
}

// appendCorner appends x as strconv.AppendFloat(b, x, 'g', -1, 64) writes
// it. An integer below 10^6 in magnitude, other than −0, takes
// strconv.AppendInt, which writes the same bytes (the shortest 'g' form
// switches to an exponent at 10^6) several times faster.
func appendCorner(b []byte, x float64) []byte {
	if x > -1e6 && x < 1e6 {
		if i := int64(x); float64(i) == x && (i != 0 || !math.Signbit(x)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
