package frel

import "math"

// RowSet is the duplicate elimination of rows of values: an
// insertion-ordered, open-addressing hash set of fixed-width value rows
// under value identity (Value.Identical), keeping per row the maximum
// membership degree it was added with — the fuzzy OR of Section 2.2 that
// GROUPBY groups and in-memory relations (DedupMax) apply. The answer's
// projection applies it over typed column rows instead (ColumnSet).
//
// The table holds row numbers and a probe hashes and compares values in
// place: no key string is built. A row added whole is kept by reference
// (tuple values are immutable), a row projected out of a wider one is
// copied into a chunked arena that never moves, so nothing is allocated
// per row and rows handed out stay valid while the set grows. The table
// starts at rowSetMinSlots and doubles, so a set over a few rows stays a
// few dozen bytes. A zero-width set (the empty projection) holds at most
// one row.
type RowSet struct {
	width  int
	rows   []Tuple  // row i with its maximum degree, in insertion order
	hashes []uint64 // hash of row i, kept for growth and fast mismatch
	table  []int32  // linear-probing table of row number + 1; 0 is empty
	arena  []Value  // current chunk for projected rows
}

const (
	// rowSetMinSlots is the initial (and post-Reset) table size, a power
	// of two.
	rowSetMinSlots = 8
	// rowSetArenaRows bounds an arena chunk: chunks start at a few rows
	// and double up to this many, so a small set allocates near its size
	// and a large one amortizes to one allocation per rowSetArenaRows rows.
	rowSetArenaRows = 1024
)

// NewRowSet creates an empty set of rows of the given width.
func NewRowSet(width int) *RowSet {
	return &RowSet{width: width, table: make([]int32, rowSetMinSlots)}
}

// Len returns the number of distinct rows.
func (s *RowSet) Len() int { return len(s.rows) }

// Row returns the values of row i.
func (s *RowSet) Row(i int) []Value { return s.rows[i].Values }

// Degree returns the maximum degree row i was added with.
func (s *RowSet) Degree(i int) float64 { return s.rows[i].D }

// Tuples returns the rows in insertion order, each at its maximum degree.
// The slice is the set's own: it is valid until the next Add or Reset.
func (s *RowSet) Tuples() []Tuple { return s.rows }

// Reset empties the set, keeping its storage for reuse; rows handed out
// before are invalid afterwards. The table shrinks back to its minimum so
// that resetting after one large use does not make every later small use
// pay for clearing a large table.
func (s *RowSet) Reset() {
	s.rows, s.hashes, s.arena = s.rows[:0], s.hashes[:0], s.arena[:0]
	s.table = s.table[:rowSetMinSlots]
	clear(s.table)
}

// Add inserts the row src[idx[0]], src[idx[1]], … with degree d, or, when
// idx is nil, the row src itself, which must be exactly one row wide and
// never written again: the set keeps it by reference. It returns the row's
// number and whether the row was new; for a row already present the
// stored degree becomes the maximum of the two.
func (s *RowSet) Add(src []Value, idx []int, d float64) (row int, added bool) {
	return s.add(hashRow(src, idx), src, idx, d)
}

// add is Add with the row's hash supplied (tests force collisions with it).
func (s *RowSet) add(h uint64, src []Value, idx []int, d float64) (row int, added bool) {
	mask := uint64(len(s.table) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		e := s.table[p]
		if e == 0 {
			break
		}
		if i := int(e - 1); s.hashes[i] == h && s.rowIs(i, src, idx) {
			if d > s.rows[i].D {
				s.rows[i].D = d
			}
			return i, false
		}
	}
	row = len(s.rows)
	vals := src
	if idx != nil {
		if len(s.arena)+s.width > cap(s.arena) {
			n := 2 * cap(s.arena)
			if n > rowSetArenaRows*s.width {
				n = rowSetArenaRows * s.width
			}
			if n < 4*s.width {
				n = 4 * s.width
			}
			s.arena = make([]Value, 0, n)
		}
		off := len(s.arena)
		for _, j := range idx {
			s.arena = append(s.arena, src[j])
		}
		vals = s.arena[off:len(s.arena):len(s.arena)]
	}
	s.rows = append(s.rows, Tuple{Values: vals, D: d})
	s.hashes = append(s.hashes, h)
	if 2*len(s.rows) > len(s.table) {
		s.grow()
	} else {
		s.place(row)
	}
	return row, true
}

func (s *RowSet) rowIs(i int, src []Value, idx []int) bool {
	row := s.rows[i].Values
	for k := range row {
		j := k
		if idx != nil {
			j = idx[k]
		}
		if !row[k].Identical(src[j]) {
			return false
		}
	}
	return true
}

// place enters an already stored row into the table.
func (s *RowSet) place(row int) {
	mask := uint64(len(s.table) - 1)
	p := s.hashes[row] & mask
	for s.table[p] != 0 {
		p = (p + 1) & mask
	}
	s.table[p] = int32(row + 1)
}

// grow doubles the table (reusing spare capacity left by a Reset) and
// re-enters every row from its stored hash.
func (s *RowSet) grow() {
	n := 2 * len(s.table)
	if cap(s.table) >= n {
		s.table = s.table[:n]
		clear(s.table)
	} else {
		s.table = make([]int32, n)
	}
	for row := range s.rows {
		s.place(row)
	}
}

// hashRow hashes the selected values of src under value identity.
func hashRow(src []Value, idx []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	if idx == nil {
		for i := range src {
			h = src[i].hash(h)
		}
	} else {
		for _, j := range idx {
			h = src[j].hash(h)
		}
	}
	return h ^ h>>29
}

// mix folds one 64-bit word into a running hash.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// hash folds the value into h consistently with Identical: the kind, then
// the string bytes or the four corner bit patterns.
func (v Value) hash(h uint64) uint64 {
	if v.Kind == KindString {
		h = mix(h, uint64(len(v.Str))<<8|'s')
		for i := 0; i < len(v.Str); i++ {
			h = (h ^ uint64(v.Str[i])) * 0x100000001b3
		}
		return h
	}
	h = mix(h, 'n')
	h = mix(h, math.Float64bits(v.Num.A))
	h = mix(h, math.Float64bits(v.Num.B))
	h = mix(h, math.Float64bits(v.Num.C))
	return mix(h, math.Float64bits(v.Num.D))
}
