// Package frel defines the fuzzy relational data model of the paper
// (Section 2.2): a fuzzy relation is a fuzzy set of fuzzy tuples. Every
// tuple carries a membership degree D in (0, 1] indicating to what extent
// the tuple belongs to the relation, and attribute values may be ill-known,
// represented by trapezoidal possibility distributions.
//
// The package provides schemas, typed values, tuples, in-memory relations,
// and a compact binary tuple codec used by the paged storage engine.
package frel

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/fuzzy"
)

// Kind is the type of an attribute domain.
type Kind uint8

// The attribute kinds of the model. Numeric attributes hold possibility
// distributions over a numeric domain; string attributes hold crisp
// strings (names, identifiers).
const (
	KindNumber Kind = iota
	KindString
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindNumber:
		return "NUMBER"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one attribute value of a fuzzy tuple: either a possibility
// distribution over a numeric domain (possibly crisp) or a crisp string.
type Value struct {
	Kind Kind
	Num  fuzzy.Trapezoid // valid when Kind == KindNumber
	Str  string          // valid when Kind == KindString
}

// Num wraps a possibility distribution as an attribute value.
func Num(t fuzzy.Trapezoid) Value {
	return Value{Kind: KindNumber, Num: t}
}

// Crisp wraps a precisely known number as an attribute value.
func Crisp(v float64) Value {
	return Num(fuzzy.Crisp(v))
}

// Str wraps a crisp string as an attribute value.
func Str(s string) Value {
	return Value{Kind: KindString, Str: s}
}

// Identical reports whether v and w are the same value: same kind and the
// same string, or corner for corner the same bit patterns. This is the one
// identity of the engine — duplicate elimination, grouping and aggregate
// value sets all use it — and it is bitwise like Key, the identity of the
// naive oracle: -0 and +0 are different values, and a NaN corner is
// identical to the same NaN. It is not the fuzzy possibility of equality.
func (v Value) Identical(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	if v.Kind == KindString {
		return v.Str == w.Str
	}
	return math.Float64bits(v.Num.A) == math.Float64bits(w.Num.A) &&
		math.Float64bits(v.Num.B) == math.Float64bits(w.Num.B) &&
		math.Float64bits(v.Num.C) == math.Float64bits(w.Num.C) &&
		math.Float64bits(v.Num.D) == math.Float64bits(w.Num.D)
}

// String renders the value.
func (v Value) String() string {
	if v.Kind == KindString {
		return strconv.Quote(v.Str)
	}
	return v.Num.String()
}

// appendKey appends a canonical byte representation of v, used as a
// duplicate-elimination key. Distinct values have distinct keys.
func (v Value) appendKey(b []byte) []byte {
	if v.Kind == KindString {
		b = append(b, 's')
		b = binary.AppendUvarint(b, uint64(len(v.Str)))
		return append(b, v.Str...)
	}
	b = append(b, 'n')
	for _, f := range [4]float64{v.Num.A, v.Num.B, v.Num.C, v.Num.D} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// Degree returns the satisfaction degree d(v op w) between two values
// (Section 2.2). String values support only crisp equality and
// inequality; comparing a string with a number yields degree 0.
func Degree(op fuzzy.Op, v, w Value) float64 {
	if v.Kind == KindString && w.Kind == KindString {
		eq := v.Str == w.Str
		switch op {
		case fuzzy.OpEq, fuzzy.OpLe, fuzzy.OpGe:
			if eq {
				return 1
			}
		case fuzzy.OpNe:
			if !eq {
				return 1
			}
		}
		// Lexicographic order for < and > on strings.
		switch op {
		case fuzzy.OpLt, fuzzy.OpLe:
			if v.Str < w.Str {
				return 1
			}
		case fuzzy.OpGt, fuzzy.OpGe:
			if v.Str > w.Str {
				return 1
			}
		}
		return 0
	}
	if v.Kind != KindNumber || w.Kind != KindNumber {
		return 0
	}
	return fuzzy.Degree(op, v.Num, w.Num)
}

// Key returns a canonical byte-string identity of the value; distinct
// values have distinct keys, and two values have equal keys exactly when
// they are Identical. The engine deduplicates with RowSet; Key remains as
// the independent identity of the naive oracle, Relation.Equal and tests.
func (v Value) Key() string { return string(v.appendKey(nil)) }

// CompareTotal orders values like Compare but breaks Definition 3.1 ties
// by the full corner representation, so that identical values are always
// adjacent after sorting. Any sequence sorted by CompareTotal is also
// sorted by Compare, so merge-join range cursors remain correct.
func CompareTotal(v, w Value) int {
	if c := Compare(v, w); c != 0 {
		return c
	}
	if v.Kind != KindNumber || w.Kind != KindNumber {
		return 0
	}
	switch {
	case v.Num.B < w.Num.B:
		return -1
	case v.Num.B > w.Num.B:
		return 1
	case v.Num.C < w.Num.C:
		return -1
	case v.Num.C > w.Num.C:
		return 1
	default:
		return 0
	}
}

// Compare orders two values for sorting: numbers by the Definition 3.1
// interval order, strings lexicographically; numbers sort before strings
// (mixed kinds only arise in ill-typed plans).
func Compare(v, w Value) int {
	if v.Kind != w.Kind {
		if v.Kind == KindNumber {
			return -1
		}
		return 1
	}
	if v.Kind == KindString {
		switch {
		case v.Str < w.Str:
			return -1
		case v.Str > w.Str:
			return 1
		default:
			return 0
		}
	}
	return v.Num.Compare(w.Num)
}
