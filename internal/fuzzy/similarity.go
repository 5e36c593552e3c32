package fuzzy

// Similarity-relation comparisons. Section 2.2 of the paper defines the
// satisfaction degree for a possibly nonbinary comparison θ:
//
//	d(X θ Y) = sup_{x,y} min(µ_U(x), µ_V(y), µ_θ(x, y)).
//
// The most useful nonbinary θ in practice is approximate equality with a
// tolerance: µ_θ(x, y) = µ_T(x − y) for a tolerance distribution T around
// zero. For that shape the sup-min collapses by the standard sup-min
// convolution identity into an ordinary equality test against the
// tolerance-widened operand:
//
//	sup_{x,y} min(µ_U(x), µ_V(y), µ_T(x − y)) = d(U = V ⊕ T),
//
// where ⊕ is fuzzy addition. A crisp symmetric tolerance [−w, +w] makes
// this exactly the band join of DeWitt et al. that the paper compares the
// fuzzy equi-join against (Section 3); a fuzzy tolerance interpolates.

// Tolerance builds a symmetric triangular tolerance distribution around
// zero: fully acceptable differences up to ±core, decaying to zero at
// ±support. Tolerance(0, 0) is exact equality.
func Tolerance(core, support float64) Trapezoid {
	if core < 0 {
		core = -core
	}
	if support < core {
		support = core
	}
	// 0-x, not -x: unary negation of a zero width would produce IEEE
	// negative zero, which renders as "-0" and breaks parse/String
	// round-trips.
	return Trapezoid{0 - support, 0 - core, core, support}
}

// ApproxEq returns the satisfaction degree of the similarity comparison
// "U approximately equals V" under the tolerance distribution tol (a
// distribution of acceptable differences x − y, usually symmetric around
// zero).
func ApproxEq(u, v Trapezoid, tol Trapezoid) float64 {
	return Eq(u, Add(v, tol))
}
