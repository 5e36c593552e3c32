package frel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fuzzy"
)

func statsSchema() *Schema {
	return NewSchema("T",
		Attribute{Name: "A", Kind: KindNumber},
		Attribute{Name: "S", Kind: KindString})
}

// TestTableStatsObserve checks extents, widths, the crisp bucket and the
// exact distinct count on a small relation.
func TestTableStatsObserve(t *testing.T) {
	ts := statsOf(
		NewTuple(1, Crisp(10), Str("x")),
		NewTuple(1, Num(fuzzy.Trapezoid{A: 0, B: 1, C: 3, D: 4}), Str("y")),
		NewTuple(1, Crisp(10), Str("x")))
	if ts.Rows != 3 {
		t.Fatalf("Rows = %d, want 3", ts.Rows)
	}
	a := ts.Attrs[0]
	if a.Numeric != 3 || a.MinLo != 0 || a.MaxHi != 10 {
		t.Fatalf("attr stats = %+v, want numeric=3 extent [0,10]", a)
	}
	if got := ts.Span(0); got != 10 {
		t.Fatalf("Span = %v, want 10", got)
	}
	if got := ts.AvgWidth(0); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("AvgWidth = %v, want 4/3", got)
	}
	if a.WidthHist[0] != 2 {
		t.Fatalf("crisp bucket = %d, want 2", a.WidthHist[0])
	}
	if got := ts.Distinct(0); got != 2 {
		t.Fatalf("Distinct(A) = %v, want 2", got)
	}
	if got := ts.Distinct(1); got != 2 {
		t.Fatalf("Distinct(S) = %v, want 2", got)
	}
	// String attribute contributes no numeric measures.
	if ts.Span(1) != 0 || ts.AvgWidth(1) != 0 {
		t.Fatalf("string attr has numeric measures: %+v", ts.Attrs[1])
	}
}

// TestKMVEstimate checks the distinct estimator stays within a reasonable
// relative error once the sketch saturates.
func TestKMVEstimate(t *testing.T) {
	for _, n := range []int{50, 500, 5000} {
		var s kmvSketch
		for i := 0; i < n; i++ {
			h := fnv1a([]byte(fmt.Sprintf("value-%d", i)))
			s.add(h)
			s.add(h) // duplicates must not distort the estimate
		}
		got := s.distinct()
		if n <= kmvK {
			if got != float64(n) {
				t.Fatalf("n=%d: exact regime returned %v", n, got)
			}
			continue
		}
		if rel := math.Abs(got-float64(n)) / float64(n); rel > 0.5 {
			t.Fatalf("n=%d: estimate %v off by %.0f%%", n, got, rel*100)
		}
	}
}

// statsOf builds the statistics of a statsSchema relation holding tuples.
func statsOf(tuples ...Tuple) *TableStats {
	ts := NewTableStats(len(statsSchema().Attrs))
	ts.ObserveAll(tuples)
	return ts
}

// TestStatsIncremental checks that statistics maintained tuple by tuple,
// as a heap file keeps them across appends, equal one build over the same
// tuples, and that a clone taken midway stays independent.
func TestStatsIncremental(t *testing.T) {
	tuples := []Tuple{
		NewTuple(1, Crisp(1), Str("a")),
		NewTuple(0.4, Crisp(2), Str("b")),
		NewTuple(0.2, Num(fuzzy.Trapezoid{A: 1, B: 2, C: 3, D: 5}), Str("a")),
	}
	ts := statsOf(tuples[0])
	early := ts.Clone()
	for _, tu := range tuples[1:] {
		ts.Observe(tu)
	}
	if !bytes.Equal(AppendStats(nil, ts), AppendStats(nil, statsOf(tuples...))) {
		t.Fatalf("incremental stats differ from a rebuild: %+v", ts)
	}
	if ts.Rows != 3 || ts.Distinct(0) != 3 || ts.Distinct(1) != 2 {
		t.Fatalf("incremental stats: rows=%d distinct=%v/%v", ts.Rows, ts.Distinct(0), ts.Distinct(1))
	}
	if early.Rows != 1 || early.Distinct(0) != 1 {
		t.Fatalf("clone followed later observations: rows=%d distinct=%v", early.Rows, early.Distinct(0))
	}
}

func TestWidthBucket(t *testing.T) {
	cases := []struct {
		w    float64
		want int
	}{
		{0, 0}, {-1, 0}, {0.3, 1}, {1, 1}, {1.5, 1}, {2, 2}, {100, 7}, {1e9, widthBuckets - 1},
		{math.Inf(1), widthBuckets - 1}, {math.Inf(-1), 0}, {math.NaN(), 0},
	}
	lo, hi := -1e308, 1e308
	cases = append(cases, struct {
		w    float64
		want int
	}{hi - lo, widthBuckets - 1}) // D − A overflowing from finite corners
	for _, c := range cases {
		if got := widthBucket(c.w); got != c.want {
			t.Errorf("widthBucket(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

// log2Bucket is the Log2 formula widthBucket replaced, for finite
// positive widths (where it is well defined).
func log2Bucket(w float64) int {
	return min(max(1+int(math.Floor(math.Log2(w))), 1), widthBuckets-1)
}

// TestWidthBucketMatchesLog2 pins that every finite positive width keeps
// the bucket of the Log2 formula: every power of two in range and its
// neighbours one ulp either side, subnormals, and a million random widths.
func TestWidthBucketMatchesLog2(t *testing.T) {
	check := func(w float64) {
		t.Helper()
		if !(w > 0) || math.IsInf(w, 0) {
			return
		}
		if got, want := widthBucket(w), log2Bucket(w); got != want {
			t.Fatalf("widthBucket(%v) = %d, Log2 formula gives %d", w, got, want)
		}
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		check(p)
		check(math.Nextafter(p, 0))
		check(math.Nextafter(p, math.Inf(1)))
	}
	check(math.SmallestNonzeroFloat64)
	check(math.MaxFloat64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1))) // subnormals
	}
	for i := 0; i < 1_000_000; i++ {
		switch i % 3 {
		case 0: // any bit pattern
			check(math.Float64frombits(rng.Uint64() &^ (1 << 63)))
		case 1: // the widths the histogram resolves
			check(rng.Float64() * 256)
		default: // just below a power of two, where Log2 may round up
			check(math.Ldexp(1-rng.Float64()*1e-12, rng.Intn(20)-5))
		}
	}
}

// TestStatsEncodingRoundTrip checks that DecodeStats inverts AppendStats
// exactly, sketch included, and rejects malformed input.
func TestStatsEncodingRoundTrip(t *testing.T) {
	full := statsOf(NewTuple(1, Num(fuzzy.Trapezoid{A: -1e308, B: 0, C: 0, D: 1e308}), Str("inf")))
	for i := 0; i < 500; i++ {
		w := float64(i%9) * 0.75
		full.Observe(NewTuple(1, Num(fuzzy.Trapezoid{A: float64(i) - w, B: float64(i), C: float64(i), D: float64(i) + w}), Str(fmt.Sprint("s", i%70))))
	}
	for _, ts := range []*TableStats{NewTableStats(0), NewTableStats(2), full} {
		enc := AppendStats(nil, ts)
		got, err := DecodeStats(enc)
		if err != nil {
			t.Fatal(err)
		}
		want := ts.Clone()
		for i := range want.Attrs {
			if len(want.Attrs[i].sketch.h) == 0 {
				want.Attrs[i].sketch.h = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
		}
		if !bytes.Equal(AppendStats(nil, got), enc) {
			t.Fatal("re-encoding differs")
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeStats(enc[:cut]); err == nil {
				t.Fatalf("truncated encoding (%d of %d bytes) decoded", cut, len(enc))
			}
		}
		if _, err := DecodeStats(append(enc, 0)); err == nil {
			t.Fatal("encoding with a trailing byte decoded")
		}
	}
	// A sketch whose hashes are not ascending is malformed.
	ts := NewTableStats(1)
	ts.Attrs[0].sketch.h = []uint64{2, 1}
	if _, err := DecodeStats(AppendStats(nil, ts)); err == nil {
		t.Fatal("unsorted sketch decoded")
	}
}
