package frel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/fuzzy"
)

// TestRowSetMaxDegreeInsertionOrder is the answer-construction rule: one
// row per distinct value combination, first-seen order, maximum degree.
func TestRowSetMaxDegreeInsertionOrder(t *testing.T) {
	s := NewRowSet(1)
	for _, in := range []struct {
		name string
		d    float64
	}{{"Ann", 0.3}, {"Betty", 0.7}, {"Ann", 0.7}, {"Ann", 0.2}} {
		s.Add([]Value{Str(in.name)}, nil, in.d)
	}
	got := s.Tuples()
	if len(got) != 2 || got[0].Values[0].Str != "Ann" || got[0].D != 0.7 ||
		got[1].Values[0].Str != "Betty" || got[1].D != 0.7 {
		t.Fatalf("Tuples = %v, want Ann 0.7 then Betty 0.7", got)
	}
}

// TestRowSetGrowthAndProbing inserts far more rows than the initial table
// holds, twice, so every insert after the first few probes past occupied
// slots and the table doubles many times; every row must keep its number.
func TestRowSetGrowthAndProbing(t *testing.T) {
	const n = 5000
	s := NewRowSet(2)
	row := func(i int) []Value { return []Value{Crisp(float64(i % 97)), Str(fmt.Sprint(i))} }
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			got, added := s.Add(row(i), nil, float64(pass+1)/4)
			if got != i || added != (pass == 0) {
				t.Fatalf("pass %d: Add(row %d) = %d, %v", pass, i, got, added)
			}
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		if r := s.Row(i); !r[0].Identical(row(i)[0]) || !r[1].Identical(row(i)[1]) || s.Degree(i) != 0.5 {
			t.Fatalf("row %d = %v degree %v", i, r, s.Degree(i))
		}
	}
}

// TestRowSetHashCollisions gives every row the same hash: the set must
// tell them apart by comparing values, and still find each one again.
func TestRowSetHashCollisions(t *testing.T) {
	s := NewRowSet(1)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 100; i++ {
			got, added := s.add(42, []Value{Crisp(float64(i))}, nil, 0.5)
			if got != i || added != (pass == 0) {
				t.Fatalf("pass %d: colliding row %d = %d, %v", pass, i, got, added)
			}
		}
	}
}

// TestRowSetKindsWithEqualBytes: a string whose bytes are a number's
// corner bit patterns is a different value from that number.
func TestRowSetKindsWithEqualBytes(t *testing.T) {
	num := Num(fuzzy.Trap(1, 2, 3, 4))
	var raw []byte
	for _, f := range []float64{1, 2, 3, 4} {
		raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(f))
	}
	str := Str(string(raw))
	s := NewRowSet(1)
	for i, v := range []Value{num, str, Str(""), Crisp(0)} {
		if row, added := s.Add([]Value{v}, nil, 1); !added || row != i {
			t.Fatalf("value %d (%v) taken for row %d", i, v, row)
		}
	}
	// The string's length is part of its identity, not only its bytes.
	a, _ := s.Add([]Value{Str("ab")}, nil, 1)
	b, _ := s.Add([]Value{Str("a")}, nil, 1)
	if a == b {
		t.Fatal(`"ab" and "a" share a row`)
	}
}

// TestRowSetBitwiseIdentity: -0 and +0 are two rows, one NaN is one row.
func TestRowSetBitwiseIdentity(t *testing.T) {
	s := NewRowSet(1)
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{0, negZero, math.NaN(), 0, negZero, math.NaN()} {
		s.Add([]Value{Crisp(v)}, nil, 1)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (+0, -0, NaN)", s.Len())
	}
}

// TestRowSetEmptyProjection: rows of width zero are all the same row.
func TestRowSetEmptyProjection(t *testing.T) {
	s := NewRowSet(0)
	wide := []Value{Crisp(1), Str("x")}
	for i, d := range []float64{0.2, 0.9, 0.4} {
		row, added := s.Add(wide, []int{}, d)
		if row != 0 || added != (i == 0) {
			t.Fatalf("Add %d = %d, %v", i, row, added)
		}
	}
	got := s.Tuples()
	if len(got) != 1 || len(got[0].Values) != 0 || got[0].D != 0.9 {
		t.Fatalf("Tuples = %v, want one empty row at 0.9", got)
	}
}

// TestRowSetProjectedAdd: idx selects and reorders source columns.
func TestRowSetProjectedAdd(t *testing.T) {
	s := NewRowSet(2)
	s.Add([]Value{Crisp(1), Str("a"), Crisp(2)}, []int{2, 0}, 0.5)
	if _, added := s.Add([]Value{Crisp(2), Crisp(1)}, nil, 0.8); added {
		t.Fatal("(2, 1) added twice")
	}
	if r := s.Row(0); r[0].Num.A != 2 || r[1].Num.A != 1 || s.Degree(0) != 0.8 {
		t.Fatalf("row = %v degree %v", r, s.Degree(0))
	}
}

// TestRowSetReset: a reset set is empty, reuses its storage, and a small
// use after a large one starts from the minimum table again.
func TestRowSetReset(t *testing.T) {
	s := NewRowSet(1)
	for i := 0; i < 1000; i++ {
		s.Add([]Value{Crisp(float64(i))}, nil, 1)
	}
	s.Reset()
	if s.Len() != 0 || len(s.table) != rowSetMinSlots {
		t.Fatalf("after Reset: Len %d, table %d", s.Len(), len(s.table))
	}
	rows := make([][]Value, 50)
	for i := range rows {
		rows[i] = []Value{Crisp(float64(i)), Str("wide")}
	}
	for i, r := range rows {
		if row, added := s.Add(r[:1], nil, 1); !added || row != i {
			t.Fatalf("after Reset: Add(%d) = %d, %v", i, row, added)
		}
	}
	// Whole rows are kept by reference and projected ones go to the kept
	// arena chunk: a reused set allocates nothing.
	p := NewRowSet(1)
	for _, set := range []*RowSet{s, p} {
		idx := []int{0}
		if set == s {
			idx = nil
		}
		fill := func() {
			set.Reset()
			for _, r := range rows {
				src := r
				if idx == nil {
					src = r[:1]
				}
				set.Add(src, idx, 1)
			}
		}
		fill()
		if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
			t.Errorf("a reused set (idx %v) allocates %v times per use", idx, allocs)
		}
	}
}
