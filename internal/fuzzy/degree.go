package fuzzy

import "fmt"

// Op is a fuzzy comparison operator appearing in Fuzzy SQL predicates
// X θ Y (Section 2.2 of the paper).
type Op int

// The comparison operators of Fuzzy SQL.
const (
	OpEq Op = iota // =
	OpNe           // <>
	OpLt           // <
	OpLe           // <=
	OpGt           // >
	OpGe           // >=
)

// String returns the SQL spelling of the operator.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Negate returns the operator θ' such that x θ' y ⇔ ¬(x θ y) on crisp
// values. It is used when unnesting JALL queries, whose temporary relation
// predicate contains ¬(R.Y op S.Z) (Section 7).
func (op Op) Negate() Op {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		panic(fmt.Sprintf("fuzzy: Negate of unknown operator %d", int(op)))
	}
}

// Flip returns the operator θ' such that x θ y ⇔ y θ' x.
func (op Op) Flip() Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// ParseOp parses the SQL spelling of a comparison operator. It accepts
// both "<>" and "!=" for OpNe.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "<>", "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("fuzzy: unknown comparison operator %q", s)
	}
}

// Eq returns the satisfaction degree d(U = V) =
// sup_x min(µ_U(x), µ_V(x)): the height of the highest intersection point
// of the two possibility distributions (Section 2.2).
//
// For example, with "medium young" = TRAP(20,25,30,35) and "about 35" =
// TRAP(30,35,35,40) as in Fig. 1 of the paper, Eq returns 0.5.
func Eq(u, v Trapezoid) float64 {
	// Cores overlap: a common fully-possible value exists.
	if u.B <= v.C && v.B <= u.C {
		return 1
	}
	if u.C < v.B {
		// u lies to the left: u's falling edge meets v's rising edge.
		return edgeIntersection(u.C, u.D, v.A, v.B)
	}
	// v lies to the left.
	return edgeIntersection(v.C, v.D, u.A, u.B)
}

// edgeIntersection returns the height at which the falling edge from
// (fallHi, 1) to (fallLo, 0) meets the rising edge from (riseLo, 0) to
// (riseHi, 1), where fallHi < riseHi (the left core ends before the right
// core begins). fallLo is the support end of the left distribution and
// riseLo the support begin of the right one.
func edgeIntersection(fallHi, fallLo, riseLo, riseHi float64) float64 {
	if fallLo <= riseLo {
		// Supports touch at most at a single zero-membership point.
		return 0
	}
	den := (fallLo - fallHi) + (riseHi - riseLo)
	if den <= 0 {
		// Both edges vertical; supports overlap (fallLo > riseLo) so some
		// point carries membership 1 in both — but then the cores would
		// overlap, which the caller has excluded. Degenerate float input;
		// be conservative.
		return 1
	}
	return clamp01((fallLo - riseLo) / den)
}

// Lt returns the satisfaction degree d(U < V) =
// sup { min(µ_U(x), µ_V(y)) : x < y }. On continuous distributions strict
// and non-strict inequality coincide except when both operands are crisp,
// where the crisp comparison is used.
func Lt(u, v Trapezoid) float64 {
	if u.IsCrisp() && v.IsCrisp() {
		if u.A < v.A {
			return 1
		}
		return 0
	}
	return leDegree(u, v)
}

// Le returns the satisfaction degree d(U <= V).
func Le(u, v Trapezoid) float64 {
	if u.IsCrisp() && v.IsCrisp() {
		if u.A <= v.A {
			return 1
		}
		return 0
	}
	return leDegree(u, v)
}

// leDegree computes sup { min(µ_U(x), µ_V(y)) : x ≤ y } for distributions
// that are not both crisp. The optimum is the largest α whose α-cuts allow
// the leftmost U-value to be at most the rightmost V-value:
// L_U(α) ≤ R_V(α) with L_U(α) = u.A + α(u.B−u.A), R_V(α) = v.D − α(v.D−v.C).
func leDegree(u, v Trapezoid) float64 {
	if u.B <= v.C {
		return 1
	}
	if u.A > v.D {
		return 0
	}
	den := (u.B - u.A) + (v.D - v.C)
	if den <= 0 {
		// Both relevant edges vertical with u.B > v.C and u.A ≤ v.D, which
		// forces u.A = u.B and v.C = v.D, i.e. u.A > v.D: unreachable; be
		// conservative.
		return 0
	}
	return clamp01((v.D - u.A) / den)
}

// Gt returns the satisfaction degree d(U > V).
func Gt(u, v Trapezoid) float64 { return Lt(v, u) }

// Ge returns the satisfaction degree d(U >= V).
func Ge(u, v Trapezoid) float64 { return Le(v, u) }

// Ne returns the satisfaction degree d(U <> V) =
// sup { min(µ_U(x), µ_V(y)) : x ≠ y }. Unless both operands are crisp
// (where it is the crisp comparison), some fully possible pair of distinct
// values exists and the degree is 1.
func Ne(u, v Trapezoid) float64 {
	if u.IsCrisp() && v.IsCrisp() {
		if u.A != v.A {
			return 1
		}
		return 0
	}
	return 1
}

// Degree returns the satisfaction degree d(U op V) for any comparison
// operator (Section 2.2).
func Degree(op Op, u, v Trapezoid) float64 {
	switch op {
	case OpEq:
		return Eq(u, v)
	case OpNe:
		return Ne(u, v)
	case OpLt:
		return Lt(u, v)
	case OpLe:
		return Le(u, v)
	case OpGt:
		return Gt(u, v)
	case OpGe:
		return Ge(u, v)
	default:
		panic(fmt.Sprintf("fuzzy: Degree of unknown operator %d", int(op)))
	}
}

// Min returns the fuzzy AND (minimum) of the given degrees; 1 for no
// arguments, matching the neutral element of conjunction.
func Min(ds ...float64) float64 {
	m := 1.0
	for _, d := range ds {
		if d < m {
			m = d
		}
	}
	return m
}

// Max returns the fuzzy OR (maximum) of the given degrees; 0 for no
// arguments, matching the neutral element of disjunction.
func Max(ds ...float64) float64 {
	m := 0.0
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
