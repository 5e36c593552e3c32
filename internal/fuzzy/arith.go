package fuzzy

// Fuzzy arithmetic (Section 6 of the paper). With trapezoidal membership
// functions, a fuzzy value induces two intervals: the 0-cut [A, D] of all
// values with membership greater than 0 and the 1-cut [B, C] of all values
// with membership 1. An arithmetic operation takes two values and
// determines the two intervals of the result by interval arithmetic on the
// corresponding cuts; e.g. for x + y the 0-cut is [x.A + y.A, x.D + y.D]
// and the 1-cut is [x.B + y.B, x.C + y.C].

// Add returns the fuzzy sum t + u.
func Add(t, u Trapezoid) Trapezoid {
	return Trapezoid{t.A + u.A, t.B + u.B, t.C + u.C, t.D + u.D}
}

// Sub returns the fuzzy difference t − u.
func Sub(t, u Trapezoid) Trapezoid {
	return Trapezoid{t.A - u.D, t.B - u.C, t.C - u.B, t.D - u.A}
}

// Neg returns the fuzzy negation −t.
func Neg(t Trapezoid) Trapezoid {
	return Trapezoid{-t.D, -t.C, -t.B, -t.A}
}

// Scale returns the fuzzy value t scaled by the crisp factor k. AVG is
// defined by fuzzy addition followed by division with the crisp group
// cardinality, i.e. Scale(sum, 1/n) (Section 6).
func Scale(t Trapezoid, k float64) Trapezoid {
	if k >= 0 {
		return Trapezoid{t.A * k, t.B * k, t.C * k, t.D * k}
	}
	return Trapezoid{t.D * k, t.C * k, t.B * k, t.A * k}
}
