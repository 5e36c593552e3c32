package frel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fuzzy"
)

// valueSetCorners are the corners fuzzed value sets are built from: both
// zeros, NaNs with three payloads and both signs, subnormals, the
// extremes, and a few ordinary numbers.
var valueSetCorners = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 7,
	math.NaN(), math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0xfff8000000000000),
	5e-324, -5e-324, 2.5e-310, math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

var valueSetStrings = []string{"", "a", "b", "ab", "\x00", "n"}

// checkValueSet decodes data into a sequence of values and enters it into
// a ValueSet. The reference is the oracle's Relation.DedupMax over the
// values as one-column rows: every Add must report a value new exactly at
// its first occurrence, and the set must hold the distinct members of
// each kind in the same first-seen order. Then it resets the set and does
// it again. data[0] picks the hashes through the set's narrow field: the
// real ones, one hash for every value, or four hash values for all of
// them.
func checkValueSet(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	mode, data := data[0]%3, data[1:]
	var vals []Value
	for i := 0; i < len(data); i++ {
		b := data[i]
		switch {
		case b%4 == 0 && i+2 < len(data): // a trapezoid, one corner per nibble
			c := func(x byte) float64 { return valueSetCorners[int(x)%len(valueSetCorners)] }
			vals = append(vals, Num(fuzzy.Trapezoid{A: c(data[i+1] & 15), B: c(data[i+1] >> 4), C: c(data[i+2] & 15), D: c(data[i+2] >> 4)}))
			i += 2
		case b%4 == 1 && len(vals) > 0: // a repeat
			vals = append(vals, vals[int(b/4)%len(vals)])
		case b%4 == 2:
			vals = append(vals, Str(valueSetStrings[int(b/4)%len(valueSetStrings)]))
		default:
			vals = append(vals, Crisp(valueSetCorners[int(b/4)%len(valueSetCorners)]))
		}
	}
	s := NewValueSet()
	s.narrow = [3]uint64{0, ^uint64(0), ^uint64(3)}[mode]
	ref := NewRelation(NewSchema("V", Attribute{"X", KindNumber}))
	for _, v := range vals {
		ref.Append(NewTuple(1, v))
	}
	ref.DedupMax()
	var nums, strs []Value
	for _, tu := range ref.Tuples {
		if v := tu.Values[0]; v.Kind == KindString {
			strs = append(strs, v)
		} else {
			nums = append(nums, v)
		}
	}
	for round := 0; round < 2; round++ {
		seen := make(map[string]bool)
		for _, v := range vals {
			if added, want := s.Add(v), !seen[v.Key()]; added != want {
				t.Fatalf("round %d: Add(%v) = %v, want %v", round, v, added, want)
			}
			seen[v.Key()] = true
		}
		if s.Len() != ref.Len() || len(s.nums) != len(nums) || len(s.strs) != len(strs) {
			t.Fatalf("round %d: %d members (%d numbers, %d strings), want %d (%d, %d)",
				round, s.Len(), len(s.nums), len(s.strs), ref.Len(), len(nums), len(strs))
		}
		for i, v := range nums {
			if Num(s.nums[i]).Key() != v.Key() {
				t.Fatalf("round %d: number %d is %v, want %v", round, i, s.nums[i], v)
			}
		}
		for i, v := range strs {
			if s.strs[i] != v.Str {
				t.Fatalf("round %d: string %d is %q, want %q", round, i, s.strs[i], v.Str)
			}
		}
		s.Reset()
	}
}

func FuzzValueSet(f *testing.F) {
	f.Add([]byte{0, 3, 7, 3, 4, 0x10, 0x01, 1, 2, 6, 4, 0x66, 0x77, 5})
	f.Add([]byte{1, 0, 0x01, 0x10, 0, 0x10, 0x01, 3, 7, 1, 5, 2, 10})
	f.Add([]byte{2, 27, 31, 35, 39, 43, 47, 51, 55, 1, 5, 9, 0, 0x9a, 0xab})
	long := []byte{0}
	for i := range 200 {
		long = append(long, byte(i*4+3), byte(i*2))
	}
	f.Add(long)
	f.Fuzz(checkValueSet)
}

// TestValueSetMatchesDedupMax is FuzzValueSet's deterministic replay: 600
// pseudo-random inputs, a third of them under each hash mode.
func TestValueSetMatchesDedupMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		data := make([]byte, 1+rng.Intn(300))
		rng.Read(data)
		data[0] = byte(i % 3)
		checkValueSet(t, data)
	}
}

// TestValueSetAggregate: COUNT counts string members too and is 0 on the
// empty set; the others aggregate the numbers in first-seen order.
func TestValueSetAggregate(t *testing.T) {
	s := NewValueSet()
	if got, ok := s.Aggregate(fuzzy.AggCount); !ok || got != fuzzy.Crisp(0) {
		t.Errorf("COUNT(empty) = %v, %v", got, ok)
	}
	if _, ok := s.Aggregate(fuzzy.AggAvg); ok {
		t.Errorf("AVG(empty) is not NULL")
	}
	for _, v := range []Value{Crisp(1), Str("x"), Crisp(2), Crisp(1), Str("x"), Str("y")} {
		s.Add(v)
	}
	if got, _ := s.Aggregate(fuzzy.AggCount); got != fuzzy.Crisp(4) {
		t.Errorf("COUNT = %v, want 4", got)
	}
	// (0.1+0.2)+0.3 and (0.3+0.2)+0.1 differ in the last bit.
	xs := []float64{0.1, 0.2, 0.3}
	s.Reset()
	for _, x := range xs {
		s.AddNum(fuzzy.Crisp(x))
	}
	if got, _ := s.Aggregate(fuzzy.AggSum); got != fuzzy.Crisp(xs[0]+xs[1]+xs[2]) {
		t.Errorf("SUM = %v, want the left-to-right sum %v", got, xs[0]+xs[1]+xs[2])
	}
}

// TestValueSetRefillAllocs: a set reset and refilled up to its former size
// allocates nothing.
func TestValueSetRefillAllocs(t *testing.T) {
	s := NewValueSet()
	fill := func() {
		s.Reset()
		for i := 0; i < 3000; i++ {
			s.AddNum(fuzzy.Tri(float64(i%1000), float64(i), float64(i+1)))
			s.AddStr(valueSetStrings[i%len(valueSetStrings)])
		}
	}
	fill()
	if n := testing.AllocsPerRun(10, fill); n != 0 {
		t.Errorf("a reset and refill allocated %.0f times, want 0", n)
	}
}
