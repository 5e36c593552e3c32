package frel

import "math"

// ColumnSet is the engine's duplicate elimination (Section 2.2: project,
// and keep the maximum degree of each duplicate) over typed column rows:
// of the answer's projection, and of GROUPBY groups and the SELECT items
// of a grouped block. A row is a position in one store of columns, read
// at the store's columns idx; the set keeps the distinct rows, under value
// identity (Value.Identical: a trapezoid's four corner bit patterns, or a
// string), each at the maximum degree it was added with, in the order of
// first occurrence. It holds no Value and builds no key: a probe hashes
// and compares the corners or strings of the probed row in place. The
// table holds row numbers; it is sized for the rows the set was created
// with room for and doubles beyond them, re-entering every row.
//
// The store is either columns the caller holds (a sweep's output), read
// in place and never written, or the set's own, into which AddTuple
// appends each candidate row and keeps it only when it is new.
type ColumnSet struct {
	store *Columns
	idx   []int     // the store's columns a row consists of
	pos   []int32   // the distinct rows, in order of first occurrence
	d     []float64 // the maximum degree of each
	table []int32   // linear probing: i+1 for distinct row i, 0 empty
}

// NewColumnSet returns an empty set of the rows of store's columns idx
// (nil: every column), with room for n distinct rows. The store's rows
// are to be added in order.
func NewColumnSet(store *Columns, idx []int, n int) *ColumnSet {
	if idx == nil {
		idx = allAttrs(len(store.Num))
	}
	size := setMinSlots
	for size < 2*n {
		size *= 2
	}
	return &ColumnSet{store: store, idx: idx, pos: make([]int32, 0, n), d: make([]float64, 0, n), table: make([]int32, size)}
}

// setMinSlots is the smallest table of a ColumnSet or ValueSet, a power
// of two.
const setMinSlots = 8

// Len returns the number of distinct rows.
func (s *ColumnSet) Len() int { return len(s.pos) }

// Add enters row p of the store at the store's degree of tuple p. It
// returns the distinct row's number, its position in the order of first
// occurrence, and whether it was new; for a row already present the kept
// degree becomes the maximum of the two.
func (s *ColumnSet) Add(p int) (row int, added bool) {
	mask := uint64(len(s.table) - 1)
	h := s.store.hashRow(p, s.idx) & mask
	for ; s.table[h] != 0; h = (h + 1) & mask {
		if r := s.table[h] - 1; s.store.sameRow(int(s.pos[r]), p, s.idx) {
			s.d[r] = max(s.d[r], s.store.D[p])
			return int(r), false
		}
	}
	row = len(s.pos)
	s.pos = append(s.pos, int32(p))
	s.d = append(s.d, s.store.D[p])
	if 2*len(s.pos) <= len(s.table) {
		s.table[h] = int32(len(s.pos))
		return row, true
	}
	// Half full: double the table and re-enter every row.
	s.table = make([]int32, 2*len(s.table))
	mask = uint64(len(s.table) - 1)
	for r, p := range s.pos {
		h := s.store.hashRow(int(p), s.idx) & mask
		for s.table[h] != 0 {
			h = (h + 1) & mask
		}
		s.table[h] = int32(r + 1)
	}
	return row, true
}

// AddTuple enters the row t.Values[idx[0]], t.Values[idx[1]], … at degree
// t.D into a set over its own store (columns of the row's schema, every
// column a row), and returns what Add does: the row is appended to the
// store and kept there only when it is new, so distinct row r is tuple r
// of the store.
func (s *ColumnSet) AddTuple(t Tuple, idx []int) (row int, added bool) {
	c := s.store
	n := c.Len()
	c.D = append(c.D, t.D)
	for j, col := range idx {
		if c.Num[j] != nil {
			c.Num[j] = append(c.Num[j], t.Values[col].Num)
		} else {
			c.Str[j] = append(c.Str[j], t.Values[col].Str)
		}
	}
	if row, added = s.Add(n); !added {
		c.Truncate(n)
	}
	return row, added
}

// Distinct returns the distinct rows as columns, in the order of first
// occurrence, each at its maximum degree. When every row of the store was
// new and a row is every column of the store, in order, they are the
// store's own columns, without a copy; otherwise they are gathered once.
func (s *ColumnSet) Distinct() *Columns {
	all := len(s.pos) == s.store.Len() && len(s.idx) == len(s.store.Num)
	for j, col := range s.idx {
		all = all && col == j
	}
	if all {
		return &Columns{D: s.d, Num: s.store.Num, Str: s.store.Str}
	}
	out := s.store.Gather(s.pos, s.idx)
	out.D = s.d
	return out
}

// Truncate drops every tuple from n on.
func (c *Columns) Truncate(n int) {
	c.D = c.D[:n]
	for i := range c.Num {
		if c.Num[i] != nil {
			c.Num[i] = c.Num[i][:n]
		} else {
			c.Str[i] = c.Str[i][:n]
		}
	}
}

// hashRow hashes tuple i's values of the columns idx under value
// identity: a number's corner bit patterns, a string's bytes.
func (c *Columns) hashRow(i int, idx []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, col := range idx {
		if num := c.Num[col]; num != nil {
			t := num[i]
			h = mix(mix(mix(mix(h, math.Float64bits(t.A)), math.Float64bits(t.B)), math.Float64bits(t.C)), math.Float64bits(t.D))
			continue
		}
		str := c.Str[col][i]
		h = mix(h, uint64(len(str)))
		for k := 0; k < len(str); k++ {
			h = (h ^ uint64(str[k])) * 0x100000001b3
		}
	}
	return h ^ h>>29
}

// mix folds one 64-bit word into a running hash.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// sameRow reports whether tuples r and i carry identical values in the
// columns idx.
func (c *Columns) sameRow(r, i int, idx []int) bool {
	for _, col := range idx {
		if num := c.Num[col]; num != nil {
			if !SameBits(num[r], num[i]) {
				return false
			}
		} else if str := c.Str[col]; str[r] != str[i] {
			return false
		}
	}
	return true
}
