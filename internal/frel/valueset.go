package frel

import (
	"math"

	"repro/internal/fuzzy"
)

// ValueSet is the typed one-column member set beside ColumnSet: the
// distinct values of one attribute under the same bitwise identity
// (Value.Identical), the fuzzy value set an aggregate is applied to
// (Section 6). It keeps no degree, as no aggregate reads one. Numeric members are a pointer-free
// []fuzzy.Trapezoid in first-seen order, the order SUM and AVG add in, so
// the same input gives the same bits; a probe of its open-addressing table
// compares corner bit patterns in place. String members, which only COUNT
// has, go in a small string side. Reset keeps all storage.
type ValueSet struct {
	nums    []fuzzy.Trapezoid
	table   []int32 // linear probing: i+1 for nums[i], 0 empty
	narrow  uint64  // bits cleared from every hash; tests set it to force collisions
	strs    []string
	strSeen map[string]struct{}
}

// NewValueSet creates an empty value set.
func NewValueSet() *ValueSet { return &ValueSet{table: make([]int32, setMinSlots)} }

// Len returns the number of distinct members, numeric and string.
func (s *ValueSet) Len() int { return len(s.nums) + len(s.strs) }

// Reset empties the set. The table keeps the size its last filling
// needed, so clearing it costs no more than that filling did.
func (s *ValueSet) Reset() {
	s.nums, s.strs = s.nums[:0], s.strs[:0]
	clear(s.table)
	clear(s.strSeen)
}

// Add enters v and reports whether it was new.
func (s *ValueSet) Add(v Value) bool {
	if v.Kind == KindString {
		return s.AddStr(v.Str)
	}
	return s.AddNum(v.Num)
}

// AddNum enters a numeric value and reports whether it was new.
func (s *ValueSet) AddNum(t fuzzy.Trapezoid) bool {
	m := uint64(len(s.table) - 1)
	p := hashNum(t) &^ s.narrow & m
	for ; s.table[p] != 0; p = (p + 1) & m {
		if SameBits(s.nums[s.table[p]-1], t) {
			return false
		}
	}
	s.nums = append(s.nums, t)
	if 2*len(s.nums) <= len(s.table) {
		s.table[p] = int32(len(s.nums))
		return true
	}
	// Half full: double the table and re-enter every member.
	s.table = make([]int32, 2*len(s.table))
	m = uint64(len(s.table) - 1)
	for i, t := range s.nums {
		p := hashNum(t) &^ s.narrow & m
		for s.table[p] != 0 {
			p = (p + 1) & m
		}
		s.table[p] = int32(i + 1)
	}
	return true
}

// AddStr enters a string value and reports whether it was new.
func (s *ValueSet) AddStr(x string) bool {
	if _, ok := s.strSeen[x]; ok {
		return false
	}
	if s.strSeen == nil {
		s.strSeen = make(map[string]struct{})
	}
	s.strSeen[x] = struct{}{}
	s.strs = append(s.strs, x)
	return true
}

// Aggregate applies f to the set: COUNT counts every member and is 0 on
// the empty set, the others are fuzzy.Aggregate over the numbers.
func (s *ValueSet) Aggregate(f fuzzy.AggFunc) (fuzzy.Trapezoid, bool) {
	if f == fuzzy.AggCount {
		return fuzzy.Crisp(float64(s.Len())), true
	}
	return fuzzy.Aggregate(f, s.nums)
}

func hashNum(t fuzzy.Trapezoid) uint64 {
	h := mix(0x9e3779b97f4a7c15, math.Float64bits(t.A))
	h = mix(mix(mix(h, math.Float64bits(t.B)), math.Float64bits(t.C)), math.Float64bits(t.D))
	return h ^ h>>29
}

// SameBits is Value.Identical on numbers: corner for corner the same bit
// patterns, so −0 and +0 differ and a NaN corner is identical to the same
// NaN. Every comparison of numeric identity in the engine goes through it.
func SameBits(a, b fuzzy.Trapezoid) bool {
	return math.Float64bits(a.A) == math.Float64bits(b.A) && math.Float64bits(a.B) == math.Float64bits(b.B) &&
		math.Float64bits(a.C) == math.Float64bits(b.C) && math.Float64bits(a.D) == math.Float64bits(b.D)
}
