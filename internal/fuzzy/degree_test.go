package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

// bruteDegree approximates d(U op V) = sup min(µU(x), µV(y), θ(x,y)) by
// searching a candidate set made of both trapezoids' corner points plus a
// grid over the union of both supports. It is the reference implementation
// the closed forms are checked against; the optimum of a min of piecewise
// linear functions is at a corner or an edge crossing, so corners plus a
// fine grid get within grid resolution of the true supremum.
func bruteDegree(op Op, u, v Trapezoid) float64 {
	lo := math.Min(u.A, v.A) - 1
	hi := math.Max(u.D, v.D) + 1
	const steps = 160
	step := (hi - lo) / steps
	if step == 0 {
		step = 1
	}
	pts := []float64{u.A, u.B, u.C, u.D, v.A, v.B, v.C, v.D}
	for i := 0; i <= steps; i++ {
		pts = append(pts, lo+float64(i)*step)
	}
	best := 0.0
	for _, x := range pts {
		mu := u.Mu(x)
		if mu <= best {
			continue
		}
		for _, y := range pts {
			if !crispHolds(op, x, y) {
				continue
			}
			if g := Min(mu, v.Mu(y)); g > best {
				best = g
			}
		}
	}
	return best
}

// crispHolds is the crisp comparison x op y.
func crispHolds(op Op, x, y float64) bool {
	switch op {
	case OpEq:
		return x == y
	case OpNe:
		return x != y
	case OpLt:
		return x < y
	case OpLe:
		return x <= y
	case OpGt:
		return x > y
	default:
		return x >= y
	}
}

// TestEqPaperFig1 checks the worked example of Section 2.2: with
// "medium young" and "about 35" as in Fig. 1,
// d(24 = medium young) = 0.8 and d(about 35 = medium young) = 0.5.
func TestEqPaperFig1(t *testing.T) {
	mediumYoung := Trap(20, 25, 30, 35)
	about35 := Tri(30, 35, 40)
	if got := Eq(Crisp(24), mediumYoung); !almostEq(got, 0.8) {
		t.Errorf("d(24 = medium young) = %g, want 0.8", got)
	}
	if got := Eq(about35, mediumYoung); !almostEq(got, 0.5) {
		t.Errorf("d(about 35 = medium young) = %g, want 0.5", got)
	}
}

func TestEqCases(t *testing.T) {
	tests := []struct {
		name string
		u, v Trapezoid
		want float64
	}{
		{"identical", Trap(1, 2, 3, 4), Trap(1, 2, 3, 4), 1},
		{"crisp equal", Crisp(5), Crisp(5), 1},
		{"crisp unequal", Crisp(5), Crisp(6), 0},
		{"crisp in core", Crisp(2.5), Trap(1, 2, 3, 4), 1},
		{"crisp on rising edge", Crisp(1.5), Trap(1, 2, 3, 4), 0.5},
		{"crisp on falling edge", Crisp(3.5), Trap(1, 2, 3, 4), 0.5},
		{"disjoint", Trap(0, 1, 2, 3), Trap(5, 6, 7, 8), 0},
		{"touching supports", Trap(0, 1, 2, 3), Trap(3, 4, 5, 6), 0},
		{"overlapping cores", Trap(0, 1, 3, 4), Trap(2, 3, 5, 6), 1},
		{"symmetric cross at half", Tri(0, 1, 2), Tri(1, 2, 3), 0.5},
		{"contained", Crisp(2), Interval(0, 5), 1},
		{"rect vs rect overlap", Interval(0, 2), Interval(1, 3), 1},
		{"rect vs rect touch", Interval(0, 2), Interval(2, 3), 1},
	}
	for _, tc := range tests {
		if got := Eq(tc.u, tc.v); !almostEq(got, tc.want) {
			t.Errorf("%s: Eq(%v, %v) = %g, want %g", tc.name, tc.u, tc.v, got, tc.want)
		}
		if got := Eq(tc.v, tc.u); !almostEq(got, tc.want) {
			t.Errorf("%s: Eq symmetric = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestEqRectTouchingCores exercises the vertical-edges corner: two
// rectangular distributions whose supports overlap in exactly one point
// that is in both cores.
func TestEqRectTouchingCores(t *testing.T) {
	u := Interval(0, 2)
	v := Interval(2, 4)
	if got := Eq(u, v); got != 1 {
		t.Errorf("Eq = %g, want 1 (2 is fully possible in both)", got)
	}
}

func TestLtCases(t *testing.T) {
	tests := []struct {
		name string
		u, v Trapezoid
		want float64
	}{
		{"crisp strict true", Crisp(1), Crisp(2), 1},
		{"crisp strict false eq", Crisp(2), Crisp(2), 0},
		{"crisp strict false gt", Crisp(3), Crisp(2), 0},
		{"cores allow", Trap(0, 1, 2, 3), Trap(2, 3, 4, 5), 1},
		{"fully left", Trap(0, 1, 2, 3), Trap(10, 11, 12, 13), 1},
		{"fully right", Trap(10, 11, 12, 13), Trap(0, 1, 2, 3), 0},
		{"same value", Trap(0, 1, 2, 3), Trap(0, 1, 2, 3), 1}, // some x < y possible
		{"partial", Tri(4, 6, 8), Tri(2, 4, 6), 0.5},          // u rising meets v falling
		{"crisp vs fuzzy", Crisp(5), Tri(2, 4, 6), 0.5},
	}
	for _, tc := range tests {
		if got := Lt(tc.u, tc.v); !almostEq(got, tc.want) {
			t.Errorf("%s: Lt(%v, %v) = %g, want %g", tc.name, tc.u, tc.v, got, tc.want)
		}
	}
}

func TestLeVsLtOnCrisp(t *testing.T) {
	if got := Le(Crisp(2), Crisp(2)); got != 1 {
		t.Errorf("Le(2,2) = %g, want 1", got)
	}
	if got := Lt(Crisp(2), Crisp(2)); got != 0 {
		t.Errorf("Lt(2,2) = %g, want 0", got)
	}
	if got := Ge(Crisp(2), Crisp(2)); got != 1 {
		t.Errorf("Ge(2,2) = %g, want 1", got)
	}
	if got := Gt(Crisp(2), Crisp(2)); got != 0 {
		t.Errorf("Gt(2,2) = %g, want 0", got)
	}
}

func TestNeCases(t *testing.T) {
	tests := []struct {
		u, v Trapezoid
		want float64
	}{
		{Crisp(1), Crisp(1), 0},
		{Crisp(1), Crisp(2), 1},
		{Crisp(1), Tri(0, 1, 2), 1},
		{Tri(0, 1, 2), Tri(0, 1, 2), 1},
	}
	for _, tc := range tests {
		if got := Ne(tc.u, tc.v); got != tc.want {
			t.Errorf("Ne(%v, %v) = %g, want %g", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestDegreeDispatch(t *testing.T) {
	u, v := Tri(0, 2, 4), Tri(3, 5, 7)
	if Degree(OpEq, u, v) != Eq(u, v) {
		t.Errorf("Degree(OpEq) mismatch")
	}
	if Degree(OpLt, u, v) != Lt(u, v) {
		t.Errorf("Degree(OpLt) mismatch")
	}
	if Degree(OpLe, u, v) != Le(u, v) {
		t.Errorf("Degree(OpLe) mismatch")
	}
	if Degree(OpGt, u, v) != Gt(u, v) {
		t.Errorf("Degree(OpGt) mismatch")
	}
	if Degree(OpGe, u, v) != Ge(u, v) {
		t.Errorf("Degree(OpGe) mismatch")
	}
	if Degree(OpNe, u, v) != Ne(u, v) {
		t.Errorf("Degree(OpNe) mismatch")
	}
}

// TestDegreeAgainstBruteForce cross-checks every closed-form degree against
// a grid-search reference on a spread of shapes.
func TestDegreeAgainstBruteForce(t *testing.T) {
	shapes := []Trapezoid{
		Crisp(3),
		Tri(0, 2, 4),
		Tri(3, 5, 7),
		Trap(1, 2, 6, 9),
		Interval(2, 5),
		Trap(-3, -1, 0, 2),
		Tri(4.5, 5, 5.5),
		Trap(0, 0, 10, 10),
	}
	ops := []Op{OpEq, OpLe, OpGe}
	for _, u := range shapes {
		for _, v := range shapes {
			for _, op := range ops {
				got := Degree(op, u, v)
				want := bruteDegree(op, u, v)
				// Grid resolution limits the reference accuracy.
				if math.Abs(got-want) > 0.02 {
					t.Errorf("Degree(%v, %v, %v) = %g, brute force says %g", op, u, v, got, want)
				}
			}
		}
	}
}

func TestQuickEqSymmetric(t *testing.T) {
	f := func(vals [8]float64) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		return almostEq(Eq(u, v), Eq(v, u))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqReflexive(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		u := randomTrap(a, b, c, d)
		return Eq(u, u) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLtGtDual(t *testing.T) {
	f := func(vals [8]float64) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		return Lt(u, v) == Gt(v, u) && Le(u, v) == Ge(v, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDegreesBounded(t *testing.T) {
	f := func(vals [8]float64, opByte uint8) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		op := Op(opByte % 6)
		d := Degree(op, u, v)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEqZeroIffDisjoint: equality possibility is positive exactly when
// the supports overlap in more than a zero-membership touching point.
func TestQuickEqDisjointSupportsZero(t *testing.T) {
	f := func(vals [8]float64) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		if !u.Intersects(v) {
			return Eq(u, v) == 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLeAtLeastEq: if two values can be equal to degree d, then u ≤ v
// holds to at least d.
func TestQuickLeAtLeastEq(t *testing.T) {
	f := func(vals [8]float64) bool {
		u := randomTrap(vals[0], vals[1], vals[2], vals[3])
		v := randomTrap(vals[4], vals[5], vals[6], vals[7])
		return Le(u, v) >= Eq(u, v)-1e-9 && Ge(u, v) >= Eq(u, v)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxNot(t *testing.T) {
	if got := Min(); got != 1 {
		t.Errorf("Min() = %g, want 1", got)
	}
	if got := Max(); got != 0 {
		t.Errorf("Max() = %g, want 0", got)
	}
	if got := Min(0.7, 0.3, 0.9); got != 0.3 {
		t.Errorf("Min = %g, want 0.3", got)
	}
	if got := Max(0.7, 0.3, 0.9); got != 0.9 {
		t.Errorf("Max = %g, want 0.9", got)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpEq, "="}, {OpNe, "<>"}, {OpLt, "<"}, {OpLe, "<="}, {OpGt, ">"}, {OpGe, ">="},
	}
	for _, tc := range tests {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.op, got, tc.want)
		}
	}
}

func TestOpNegate(t *testing.T) {
	tests := []struct{ op, want Op }{
		{OpEq, OpNe}, {OpNe, OpEq}, {OpLt, OpGe}, {OpGe, OpLt}, {OpLe, OpGt}, {OpGt, OpLe},
	}
	for _, tc := range tests {
		if got := tc.op.Negate(); got != tc.want {
			t.Errorf("%v.Negate() = %v, want %v", tc.op, got, tc.want)
		}
		if got := tc.op.Negate().Negate(); got != tc.op {
			t.Errorf("double negation of %v = %v", tc.op, got)
		}
	}
}

func TestOpFlip(t *testing.T) {
	tests := []struct{ op, want Op }{
		{OpEq, OpEq}, {OpNe, OpNe}, {OpLt, OpGt}, {OpGt, OpLt}, {OpLe, OpGe}, {OpGe, OpLe},
	}
	for _, tc := range tests {
		if got := tc.op.Flip(); got != tc.want {
			t.Errorf("%v.Flip() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]Op{
		"=": OpEq, "==": OpEq, "<>": OpNe, "!=": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for s, want := range good {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Errorf("ParseOp(~): want error")
	}
}
