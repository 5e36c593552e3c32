package fuzzy

import (
	"math"
	"strconv"
	"testing"
)

// appendRef appends the text AppendTo renders, written corner by corner
// with strconv.AppendFloat(…, 'g', -1, 64): the reference the integer
// fast path must match byte for byte.
func appendRef(b []byte, t Trapezoid) []byte {
	if t.IsCrisp() {
		return strconv.AppendFloat(b, t.A, 'g', -1, 64)
	}
	b = append(b, "TRAP("...)
	for i, c := range [4]float64{t.A, t.B, t.C, t.D} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
	}
	return append(b, ')')
}

// TestAppendToMatchesFormatFloat: every integer in [−10^6−2, 10^6+2],
// both zeros, NaN, both infinities and a few non-integers render as
// strconv.AppendFloat(…, 'g', -1, 64) renders them, crisp and as a corner
// of a trapezoid.
func TestAppendToMatchesFormatFloat(t *testing.T) {
	var got, want []byte
	check := func(x float64) {
		t.Helper()
		// A crisp NaN is no crisp value (NaN != NaN): it renders as TRAP.
		if got, want = Crisp(x).AppendTo(got[:0]), strconv.AppendFloat(want[:0], x, 'g', -1, 64); string(got) != string(want) && x == x {
			t.Fatalf("Crisp(%v).AppendTo = %q, want %q", x, got, want)
		}
		for _, tr := range [2]Trapezoid{Crisp(x), {A: x, B: 0.5, C: x, D: math.Inf(1)}} {
			if got, want = tr.AppendTo(got[:0]), appendRef(want[:0], tr); string(got) != string(want) {
				t.Fatalf("%#v.AppendTo = %q, want %q", tr, got, want)
			}
		}
	}
	for i := -1_000_002; i <= 1_000_002; i++ {
		check(float64(i))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -0.5, 1e-5, 1 << 53, -(1 << 53), 999999.5, -999999.5} {
		check(x)
	}
	if got := string(Crisp(math.Copysign(0, -1)).AppendTo(nil)); got != "-0" {
		t.Errorf("−0 renders as %q, want \"-0\"", got)
	}
	if got := string(Crisp(1e6).AppendTo(nil)); got != "1e+06" {
		t.Errorf("10^6 renders as %q, want \"1e+06\"", got)
	}
}

// FuzzAppendTo: any four corners, crisp or not, render as the reference
// does.
func FuzzAppendTo(f *testing.F) {
	for _, c := range [][4]float64{
		{1, 1, 1, 1}, {-3, -1, 2, 5}, {0, 0, 0, 0}, {math.Copysign(0, -1), 0, 0, 0},
		{999999, 999999, 999999, 999999}, {1e6, 1e6, 1e6, 1e6}, {0.1, 0.2, 0.3, 0.4},
		{math.NaN(), 1, 2, 3}, {math.Inf(-1), 0, 0, math.Inf(1)}, {-1e-7, 5e-324, 1 << 53, 1e21},
	} {
		f.Add(c[0], c[1], c[2], c[3])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, tr := range []Trapezoid{{A: a, B: b, C: c, D: d}, Crisp(a), Crisp(math.Round(a))} {
			if got, want := tr.AppendTo([]byte("x")), appendRef([]byte("x"), tr); string(got) != string(want) {
				t.Fatalf("%#v.AppendTo = %q, want %q", tr, got, want)
			}
		}
	})
}
