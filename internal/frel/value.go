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
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

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
	return SameBits(v.Num, w.Num)
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
// they are Identical. The engine deduplicates with ColumnSet; Key is the
// independent identity of the oracle's Relation.DedupMax, Relation.Equal
// and tests.
func (v Value) Key() string { return string(v.appendKey(nil)) }

// Compare is the engine's one sort order: the order of every sorted
// input of a merge join, anti-join or group-aggregate, of the external
// sort and of order indexes. Numbers sort before strings (mixed kinds only
// arise in ill-typed plans). Numbers compare by the Definition 3.1
// interval order ≼ — support begin A, then support end D — and then by the
// core, B then C, numerically; the ties that remain, corners numerically
// equal but not bit for bit (−0 and +0), break by the corners' bit
// patterns in the same sequence. So Compare(v, w) is 0 exactly when v and
// w are Identical, identical values are adjacent in any sorted sequence,
// and a sequence sorted by Compare is sorted by ≼. Strings compare
// bytewise.
func Compare(v, w Value) int {
	if v.Kind != w.Kind {
		if v.Kind == KindNumber {
			return -1
		}
		return 1
	}
	if v.Kind == KindString {
		return strings.Compare(v.Str, w.Str)
	}
	a, b := ValueSortKey(v), ValueSortKey(w)
	return CompareKeys(&a, &b)
}

// CompareKeys is Compare on the sort keys of two values of one attribute
// (DecodeSortKey, ValueSortKey), the comparator of the external sort. A
// string's key has zero corners and a number's key no bytes, so the one
// sequence of tests orders both kinds.
func CompareKeys(a, b *SortKey) int {
	switch {
	case a.A < b.A:
		return -1
	case a.A > b.A:
		return 1
	case a.D < b.D:
		return -1
	case a.D > b.D:
		return 1
	case a.B < b.B:
		return -1
	case a.B > b.B:
		return 1
	case a.C < b.C:
		return -1
	case a.C > b.C:
		return 1
	}
	for _, c := range [4]int{compareBits(a.A, b.A), compareBits(a.D, b.D), compareBits(a.B, b.B), compareBits(a.C, b.C)} {
		if c != 0 {
			return c
		}
	}
	return bytes.Compare(a.Str, b.Str)
}

// compareBits orders two floats by their bit patterns read as signed
// integers: −0 before +0.
func compareBits(x, y float64) int {
	return cmp.Compare(int64(math.Float64bits(x)), int64(math.Float64bits(y)))
}
