package fuzzy

import (
	"fmt"
	"math"
)

// AggFunc identifies one of the Fuzzy SQL aggregate functions (Section 6).
type AggFunc int

// The aggregate functions of Fuzzy SQL.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// ParseAggFunc parses the SQL spelling of an aggregate function name,
// case-insensitively on ASCII letters.
func ParseAggFunc(s string) (AggFunc, error) {
	up := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up) {
	case "COUNT":
		return AggCount, nil
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("fuzzy: unknown aggregate function %q", s)
	}
}

// Aggregate applies the aggregate function f to a fuzzy set of values,
// following the Fuzzy SQL semantics of Section 6:
//
//   - COUNT returns the (crisp) number of values in the set, including for
//     the empty set (0);
//   - SUM is defined by fuzzy addition, AVG by fuzzy addition and division
//     with the crisp cardinality;
//   - MIN and MAX use the defuzzification that orders fuzzy values by the
//     center of their 1-cuts;
//   - for an empty set, SUM, AVG, MIN and MAX produce NULL, reported by
//     ok == false.
//
// The set holds each member's value once; the result degree D(A(r)) is 1
// in Fuzzy SQL, so no member degree is read. SUM and AVG add left to
// right: the same members in the same order give the same bits.
func Aggregate(f AggFunc, set []Trapezoid) (result Trapezoid, ok bool) {
	if f == AggCount {
		return Crisp(float64(len(set))), true
	}
	if len(set) == 0 {
		return Trapezoid{}, false
	}
	switch f {
	case AggSum, AggAvg:
		sum := set[0]
		for _, v := range set[1:] {
			sum = Add(sum, v)
		}
		if f == AggSum {
			return sum, true
		}
		return Scale(sum, 1/float64(len(set))), true
	case AggMin:
		best := set[0]
		for _, v := range set[1:] {
			if defuzzLess(v, best) {
				best = v
			}
		}
		return best, true
	case AggMax:
		best := set[0]
		for _, v := range set[1:] {
			if defuzzLess(best, v) {
				best = v
			}
		}
		return best, true
	default:
		panic(fmt.Sprintf("fuzzy: Aggregate of unknown function %d", int(f)))
	}
}

// defuzzLess is the total order MIN and MAX select by: the center of the
// 1-cut (the paper's defuzzification), with corner-wise tie-breaking so
// the selected value does not depend on input order. Corners that compare
// equal differ at most in the sign of a zero, and -0 sorts below +0.
func defuzzLess(a, b Trapezoid) bool {
	switch {
	case a.Centroid() != b.Centroid():
		return a.Centroid() < b.Centroid()
	case a.A != b.A:
		return a.A < b.A
	case a.B != b.B:
		return a.B < b.B
	case a.C != b.C:
		return a.C < b.C
	case a.D != b.D:
		return a.D < b.D
	}
	for _, c := range [4][2]float64{{a.A, b.A}, {a.B, b.B}, {a.C, b.C}, {a.D, b.D}} {
		if sa := math.Signbit(c[0]); sa != math.Signbit(c[1]) {
			return sa
		}
	}
	return false
}
