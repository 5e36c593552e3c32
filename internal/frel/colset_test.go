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
// floats but not bit for bit (−0, +0, two NaN payloads: math.NaN() is
// 0x7ff8000000000001), a trapezoid, and strings.
var colsetValues = [][]Value{
	{Crisp(0), Crisp(math.Copysign(0, -1)), Crisp(math.NaN()), Crisp(math.Float64frombits(0x7ff8000000000000)), Num(fuzzy.Trap(1, 2, 3, 4)), Crisp(1)},
	{Str(""), Str("a"), Str("ab"), Str("b")},
}

// checkColumnSet decodes data into rows of colsetSchema and a projection
// idx, and enters the rows both ways into a column set — the store read
// in place at idx, and each row appended at idx into the set's own store
// — sized for every row or grown from the minimum table. Both must give
// what the oracle's Relation.DedupMax gives the projected rows: the same
// distinct rows in the same order, at the same degrees bit for bit, and
// from every Add the distinct row's number and whether it was new.
//
// data[0] picks the sizing and the width of idx (0 to 3 columns, repeats
// allowed), the next bytes its columns, and then every four bytes are a
// row: X, NAME, Y and a degree in eighths.
func checkColumnSet(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	presize, width := data[0]&1 == 1, int(data[0]>>1)%4
	data = data[1:]
	if len(data) < width {
		return
	}
	idx := make([]int, width)
	for i := range idx {
		idx[i] = int(data[i]) % 3
	}
	data = data[width:]
	s := colsetSchema()
	n := len(data) / 4
	store := NewColumns(s, n)
	var tuples []Tuple
	for i := 0; i+4 <= len(data); i += 4 {
		nums, strs := colsetValues[0], colsetValues[1]
		tu := NewTuple(float64(1+data[i+3]%8)/8,
			nums[int(data[i])%len(nums)], strs[int(data[i+1])%len(strs)], nums[int(data[i+2])%len(nums)])
		tuples = append(tuples, tu)
		store.AppendTuple(tu)
	}
	proj, _, err := s.Project(attrNames(s, idx))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRelation(proj)
	for _, tu := range tuples {
		ref.Append(tu.Project(idx))
	}
	keys := make([]string, n)
	firstAt := make(map[string]int) // key -> row number in the reference
	for i, tu := range ref.Tuples {
		keys[i] = tu.Key()
		if _, ok := firstAt[keys[i]]; !ok {
			firstAt[keys[i]] = len(firstAt)
		}
	}
	ref.DedupMax()

	room := 0
	if presize {
		room = n
	}
	inPlace := NewColumnSet(store, idx, room)
	own := NewColumnSet(NewColumns(proj, room), nil, room)
	distinct := 0
	for i, tu := range tuples {
		wantRow := firstAt[keys[i]]
		wantNew := wantRow == distinct
		if wantNew {
			distinct++
		}
		for name, add := range map[string]func() (int, bool){
			"in place": func() (int, bool) { return inPlace.Add(i) },
			"appended": func() (int, bool) { return own.AddTuple(tu, idx) },
		} {
			if row, added := add(); row != wantRow || added != wantNew {
				t.Fatalf("idx %v, %s: row %d gave (%d, %v), want (%d, %v)", idx, name, i, row, added, wantRow, wantNew)
			}
		}
	}
	for name, set := range map[string]*ColumnSet{"in place": inPlace, "appended": own} {
		got := set.Distinct().Relation(proj).Tuples
		if len(got) != ref.Len() || set.Len() != ref.Len() {
			t.Fatalf("idx %v, %s: %d distinct rows, want %d", idx, name, len(got), ref.Len())
		}
		for i, want := range ref.Tuples {
			if got[i].Key() != want.Key() || math.Float64bits(got[i].D) != math.Float64bits(want.D) {
				t.Fatalf("idx %v, %s: row %d = %v, want %v", idx, name, i, got[i], want)
			}
		}
	}
}

func FuzzColumnSet(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 3, 2, 1, 1, 3, 3, 2, 0, 0, 2, 4})
	f.Add([]byte{5, 2, 0, 0, 1, 1, 7, 1, 1, 0, 2, 2, 2, 3, 3, 3, 3, 0, 1, 4, 6})
	f.Add([]byte{6, 1, 2, 2, 0, 0, 0, 5, 1, 0, 1, 4, 0, 1, 0, 2, 3, 1, 1, 7})
	long := []byte{7, 2, 1, 0}
	for i := range 300 {
		long = append(long, byte(i*7), byte(i/3), byte(i*5), byte(i))
	}
	f.Add(long)
	f.Fuzz(checkColumnSet)
}

// TestColumnSetMatchesDedupMax is FuzzColumnSet's deterministic replay:
// 400 pseudo-random inputs, every sizing and width of projection.
func TestColumnSetMatchesDedupMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		data := make([]byte, 4+rng.Intn(4*300))
		rng.Read(data)
		data[0] = byte(i % 8)
		checkColumnSet(t, data)
	}
}

func attrNames(s *Schema, idx []int) []string {
	names := make([]string, len(idx))
	for i, c := range idx {
		names[i] = s.Attrs[c].Name
	}
	return names
}

// TestColumnSetMaxDegreeFirstOccurrence is the answer-construction rule:
// one row per distinct value, at the maximum degree it was added with, in
// the position of its first occurrence.
func TestColumnSetMaxDegreeFirstOccurrence(t *testing.T) {
	s := colsetSchema()
	set := NewColumnSet(NewColumns(s, 0), nil, 0)
	for i, c := range []struct {
		name    string
		d       float64
		row     int
		added   bool
		wantLen int
	}{
		{"Ann", 0.3, 0, true, 1},
		{"Bob", 0.5, 1, true, 2},
		{"Ann", 0.9, 0, false, 2},
		{"Ann", 0.1, 0, false, 2},
	} {
		row, added := set.AddTuple(NewTuple(c.d, Crisp(1), Str(c.name), Crisp(2)), []int{0, 1, 2})
		if row != c.row || added != c.added || set.Len() != c.wantLen {
			t.Fatalf("add %d (%s): (%d, %v), %d rows; want (%d, %v), %d", i, c.name, row, added, set.Len(), c.row, c.added, c.wantLen)
		}
	}
	got := set.Distinct()
	if got.Str[1][0] != "Ann" || got.D[0] != 0.9 || got.Str[1][1] != "Bob" || got.D[1] != 0.5 {
		t.Errorf("distinct rows = %v at %v, want Ann 0.9, Bob 0.5", got.Str[1], got.D)
	}
}

// TestColumnSetCollisionsAndGrowth enters rows whose hashes agree in
// their low ten bits, so they probe one chain in every table up to 1 024
// slots, into a set sized for four rows: the set grows past its size
// several times and must still find every row again, at its number.
func TestColumnSetCollisionsAndGrowth(t *testing.T) {
	s := &Schema{Name: "C", Attrs: []Attribute{{Name: "X", Kind: KindNumber}}}
	all := NewColumns(s, 1<<16)
	for i := range 1 << 16 {
		all.AppendTuple(NewTuple(1, Crisp(float64(i))))
	}
	const lowBits = 1<<10 - 1
	slot := all.hashRow(0, []int{0}) & lowBits
	store := NewColumns(s, 0)
	for i := 0; i < all.Len() && store.Len() < 40; i++ {
		if all.hashRow(i, []int{0})&lowBits == slot {
			store.AppendTuple(NewTuple(float64(i%7+1)/8, all.Value(i, 0)))
		}
	}
	if store.Len() < 40 {
		t.Fatalf("only %d colliding rows", store.Len())
	}
	set := NewColumnSet(store, nil, 4)
	for round := 0; round < 2; round++ {
		for i := range store.Len() {
			if row, added := set.Add(i); row != i || added != (round == 0) {
				t.Fatalf("round %d: row %d gave (%d, %v)", round, i, row, added)
			}
		}
	}
	if set.Len() != store.Len() || len(set.table) < 2*store.Len() {
		t.Fatalf("%d rows in a table of %d slots, want %d rows", set.Len(), len(set.table), store.Len())
	}
}

// TestColumnSetBitwiseIdentity: −0 and +0 are two rows, a NaN is one row
// with itself and two with a NaN of another payload (math.NaN()'s is 1).
func TestColumnSetBitwiseIdentity(t *testing.T) {
	s := &Schema{Name: "C", Attrs: []Attribute{{Name: "X", Kind: KindNumber}}}
	store := NewColumns(s, 6)
	nan2 := math.Float64frombits(0x7ff8000000000000)
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.NaN(), nan2, 0} {
		store.AppendTuple(NewTuple(1, Crisp(x)))
	}
	set := NewColumnSet(store, nil, 0)
	var news []bool
	for i := range store.Len() {
		_, added := set.Add(i)
		news = append(news, added)
	}
	want := []bool{true, true, true, false, true, false}
	for i := range want {
		if news[i] != want[i] {
			t.Fatalf("new rows %v, want %v", news, want)
		}
	}
}

// TestColumnSetEmptyProjection: rows of width zero are all the same row,
// at the maximum degree, read in place or appended.
func TestColumnSetEmptyProjection(t *testing.T) {
	s := colsetSchema()
	store := NewColumns(s, 3)
	for i, d := range []float64{0.25, 0.75, 0.5} {
		store.AppendTuple(NewTuple(d, Crisp(float64(i)), Str("x"), Crisp(1)))
	}
	inPlace := NewColumnSet(store, []int{}, 0)
	own := NewColumnSet(NewColumns(&Schema{}, 0), nil, 0)
	for i := range store.Len() {
		r1, a1 := inPlace.Add(i)
		r2, a2 := own.AddTuple(NewTuple(store.D[i]), nil)
		if r1 != 0 || r2 != 0 || a1 != (i == 0) || a2 != (i == 0) {
			t.Fatalf("row %d: (%d, %v) and (%d, %v), want row 0 new only first", i, r1, a1, r2, a2)
		}
	}
	for name, set := range map[string]*ColumnSet{"in place": inPlace, "appended": own} {
		if got := set.Distinct(); got.Len() != 1 || got.D[0] != 0.75 || len(got.Num) != 0 {
			t.Errorf("%s: distinct = %+v, want one empty row at 0.75", name, got)
		}
	}
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
		if _, added := set.Add(i); !added {
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
