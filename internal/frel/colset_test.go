package frel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fuzzy"
)

// colsetSchema is the store of the column set tests: two numbers and a
// string.
func colsetSchema() *Schema {
	return &Schema{Name: "C", Attrs: []Attribute{{Name: "X", Kind: KindNumber}, {Name: "NAME", Kind: KindString}, {Name: "Y", Kind: KindNumber}}}
}

// colsetValues are the values the tests draw from: numbers equal as
// floats but not bit for bit (−0, +0, two NaN payloads), a trapezoid, and
// strings.
var colsetValues = [][]Value{
	{Crisp(0), Crisp(math.Copysign(0, -1)), Crisp(math.NaN()), Crisp(math.Float64frombits(0x7ff8000000000001)), Num(fuzzy.Trap(1, 2, 3, 4)), Crisp(1)},
	{Str(""), Str("a"), Str("ab"), Str("b")},
}

// TestColumnSetMatchesRowSet: over random rows, both ways into a column
// set — a store of columns read in place at a projection, and rows
// appended tuple by tuple into the set's own store — give the distinct
// rows RowSet gives, in the same order, at the same degrees, bit for bit,
// whether the set was sized for them or grew.
func TestColumnSetMatchesRowSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := colsetSchema()
	for round := 0; round < 200; round++ {
		n := rng.Intn(300)
		store := NewColumns(s, n)
		var tuples []Tuple
		for range n {
			tu := Tuple{D: float64(1+rng.Intn(8)) / 8, Values: []Value{
				colsetValues[0][rng.Intn(len(colsetValues[0]))],
				colsetValues[1][rng.Intn(len(colsetValues[1]))],
				colsetValues[0][rng.Intn(len(colsetValues[0]))],
			}}
			tuples = append(tuples, tu)
			store.AppendTuple(tu)
		}
		for _, idx := range [][]int{{0}, {1}, {2, 0}, {0, 1, 2}, {}} {
			ref := NewRowSet(len(idx))
			for _, tu := range tuples {
				ref.Add(tu.Values, idx, tu.D)
			}
			proj, _, err := s.Project(attrNames(s, idx))
			if err != nil {
				t.Fatal(err)
			}
			room := 0
			if round%2 == 0 {
				room = n
			}
			inPlace := NewColumnSet(store, idx, room)
			for i := range n {
				inPlace.Add(i)
			}
			own := NewColumnSet(NewColumns(proj, room), nil, room)
			for _, tu := range tuples {
				own.AddTuple(tu, idx)
			}
			for name, set := range map[string]*ColumnSet{"in place": inPlace, "appended": own} {
				got := set.Distinct().Relation(proj).Tuples
				want := ref.Tuples()
				if len(got) != len(want) || set.Len() != len(want) {
					t.Fatalf("round %d %s idx %v: %d distinct rows, want %d", round, name, idx, len(got), len(want))
				}
				for i := range want {
					if !got[i].IdenticalValues(want[i]) || math.Float64bits(got[i].D) != math.Float64bits(want[i].D) {
						t.Fatalf("round %d %s idx %v: row %d = %v, want %v", round, name, idx, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func attrNames(s *Schema, idx []int) []string {
	names := make([]string, len(idx))
	for i, c := range idx {
		names[i] = s.Attrs[c].Name
	}
	return names
}

// TestColumnSetDistinctInPlace: a store whose rows are all distinct, read
// at every column in order, is served without a copy; a duplicate or a
// narrower projection gathers the distinct rows.
func TestColumnSetDistinctInPlace(t *testing.T) {
	s := colsetSchema()
	store := NewColumns(s, 3)
	for i, name := range []string{"a", "b", "a"} {
		store.AppendTuple(NewTuple(0.5, Crisp(float64(i)), Str(name), Crisp(1)))
	}
	set := NewColumnSet(store, nil, 3)
	for i := range 3 {
		if !set.Add(i) {
			t.Fatalf("row %d is not new", i)
		}
	}
	if got := set.Distinct(); &got.Num[0][0] != &store.Num[0][0] || got.Len() != 3 {
		t.Errorf("all-distinct rows were copied")
	}
	narrow := NewColumnSet(store, []int{1}, 0)
	for i := range 3 {
		narrow.Add(i)
	}
	if got := narrow.Distinct(); got.Len() != 2 || got.Str[0][0] != "a" || got.Str[0][1] != "b" || len(got.Num) != 1 {
		t.Errorf("projection onto NAME = %+v, want a, b", got)
	}
}
