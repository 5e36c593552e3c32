package frel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fuzzy"
)

func TestRoundTrip(t *testing.T) {
	s := dating()
	in := NewTuple(0.7, Crisp(101), Str("Ann"), Num(fuzzy.Tri(30, 35, 40)), Num(fuzzy.Trap(50, 60, 68, 78)))
	buf, err := AppendTuple(nil, s, in)
	if err != nil {
		t.Fatalf("AppendTuple: %v", err)
	}
	if len(buf) != EncodedSize(s, in) {
		t.Errorf("EncodedSize = %d, actual %d", EncodedSize(s, in), len(buf))
	}
	out, n, err := DecodeTuple(s, buf)
	if err != nil {
		t.Fatalf("DecodeTuple: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if out.D != in.D || !out.IdenticalValues(in) {
		t.Errorf("round trip mismatch: %v vs %v", out, in)
	}
}

func TestRoundTripWithPadding(t *testing.T) {
	s := dating()
	s.Pad = 64
	in := NewTuple(1, Crisp(1), Str("x"), Crisp(2), Crisp(3))
	buf, err := AppendTuple(nil, s, in)
	if err != nil {
		t.Fatalf("AppendTuple: %v", err)
	}
	unpadded := s.Clone()
	unpadded.Pad = 0
	plain, _ := AppendTuple(nil, unpadded, in)
	if len(buf) != len(plain)+64 {
		t.Errorf("padded size %d, plain %d", len(buf), len(plain))
	}
	out, n, err := DecodeTuple(s, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeTuple: %v (n=%d)", err, n)
	}
	if !out.IdenticalValues(in) {
		t.Errorf("round trip mismatch with padding")
	}
}

func TestAppendTupleErrors(t *testing.T) {
	s := dating()
	if _, err := AppendTuple(nil, s, NewTuple(1, Crisp(1))); err == nil {
		t.Errorf("arity mismatch: want error")
	}
	bad := NewTuple(1, Str("x"), Str("Ann"), Crisp(1), Crisp(2))
	if _, err := AppendTuple(nil, s, bad); err == nil {
		t.Errorf("kind mismatch: want error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := dating()
	in := NewTuple(0.5, Crisp(101), Str("Ann"), Crisp(30), Crisp(60))
	buf, _ := AppendTuple(nil, s, in)
	for _, cut := range []int{0, 4, 8, 20, len(buf) - 1} {
		if _, _, err := DecodeTuple(s, buf[:cut]); err == nil {
			t.Errorf("DecodeTuple of %d/%d bytes: want error", cut, len(buf))
		}
	}
}

func TestDecodeConsecutive(t *testing.T) {
	s := NewSchema("R", Attribute{"X", KindNumber})
	var buf []byte
	var err error
	for i := 0; i < 5; i++ {
		buf, err = AppendTuple(buf, s, NewTuple(1, Crisp(float64(i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	pos := 0
	for i := 0; i < 5; i++ {
		tp, n, err := DecodeTuple(s, buf[pos:])
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if tp.Values[0].Num.A != float64(i) {
			t.Errorf("tuple %d = %v", i, tp)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Errorf("consumed %d of %d", pos, len(buf))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s := NewSchema("R",
		Attribute{"X", KindNumber},
		Attribute{"NAME", KindString},
	)
	f := func(vals [4]float64, name string, d float64) bool {
		corners := vals
		// Normalize to a valid trapezoid.
		for i := 0; i < 4; i++ {
			if math.IsNaN(corners[i]) || math.IsInf(corners[i], 0) {
				corners[i] = 0
			}
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if corners[j] < corners[i] {
					corners[i], corners[j] = corners[j], corners[i]
				}
			}
		}
		deg := math.Abs(math.Mod(d, 1))
		in := NewTuple(deg, Num(fuzzy.Trapezoid{A: corners[0], B: corners[1], C: corners[2], D: corners[3]}), Str(name))
		buf, err := AppendTuple(nil, s, in)
		if err != nil {
			return false
		}
		out, n, err := DecodeTuple(s, buf)
		return err == nil && n == len(buf) && out.D == in.D && out.IdenticalValues(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	s := dating()
	s.Pad = 13
	in := NewTuple(0.25, Crisp(1), Str("some longer name here"), Crisp(2), Crisp(3))
	buf, err := AppendTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodedSize(s, in); got != len(buf) {
		t.Errorf("EncodedSize = %d, want %d", got, len(buf))
	}
}

// TestDecodeSortKey: the key read from a record is the key of the decoded
// value, for every attribute of every kind, and every truncation of the
// record that cuts into the key (or into a string length before it) is an
// error, not a panic.
func TestDecodeSortKey(t *testing.T) {
	s := dating()
	s.Pad = 3
	in := NewTuple(0.5, Crisp(101), Str("Ann"), Num(fuzzy.Trap(math.Copysign(0, -1), 1, 2, 3)), Num(fuzzy.Tri(50, 60, 70)))
	buf, err := AppendTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	keyEnd := 8
	for i, v := range in.Values {
		got, err := DecodeSortKey(s, buf, i)
		if err != nil {
			t.Fatalf("attribute %d: %v", i, err)
		}
		want := ValueSortKey(v)
		if math.Float64bits(got.A) != math.Float64bits(want.A) || got.B != want.B || got.C != want.C || got.D != want.D || string(got.Str) != string(want.Str) {
			t.Errorf("attribute %d: key %+v, want %+v", i, got, want)
		}
		if v.Kind == KindString {
			keyEnd += 1 + len(v.Str)
		} else {
			keyEnd += 32
		}
		for cut := 0; cut < keyEnd; cut++ {
			if _, err := DecodeSortKey(s, buf[:cut], i); err == nil {
				t.Errorf("attribute %d, record cut to %d bytes: want an error", i, cut)
			}
		}
	}
	if _, err := DecodeSortKey(s, buf, len(s.Attrs)); err == nil {
		t.Errorf("attribute out of range: want an error")
	}
	corrupt := append(append([]byte(nil), buf[:40]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeSortKey(s, corrupt, 2); err == nil {
		t.Errorf("corrupt string length: want an error")
	}
	if _, _, err := DecodeTuple(s, append(append([]byte(nil), buf[:40]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)); err == nil {
		t.Errorf("DecodeTuple of a string longer than the record: want an error")
	}
}
