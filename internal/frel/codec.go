package frel

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fuzzy"
)

// Binary tuple codec. The layout, per tuple:
//
//	D        float64, little endian (the membership degree)
//	values   in schema order:
//	           NUMBER: the four trapezoid corners, 4 × float64
//	           STRING: uvarint length + raw bytes
//	padding  Schema.Pad zero bytes
//
// The codec is what the storage engine stores in pages; its size is what
// the tuple-size experiments measure.

// AppendTuple appends the serialized form of t (under schema s) to buf and
// returns the extended buffer.
func AppendTuple(buf []byte, s *Schema, t Tuple) ([]byte, error) {
	if len(t.Values) != len(s.Attrs) {
		return nil, fmt.Errorf("frel: tuple has %d values, schema %q has %d attributes", len(t.Values), s.Name, len(s.Attrs))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.D))
	for i, v := range t.Values {
		if v.Kind != s.Attrs[i].Kind {
			return nil, fmt.Errorf("frel: value %d of kind %v does not match attribute %q of kind %v", i, v.Kind, s.Attrs[i].Name, s.Attrs[i].Kind)
		}
		switch v.Kind {
		case KindNumber:
			for _, f := range [4]float64{v.Num.A, v.Num.B, v.Num.C, v.Num.D} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		case KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
			buf = append(buf, v.Str...)
		}
	}
	for i := 0; i < s.Pad; i++ {
		buf = append(buf, 0)
	}
	return buf, nil
}

// EncodedSize returns the number of bytes AppendTuple will produce for t.
func EncodedSize(s *Schema, t Tuple) int {
	n := 8 + s.Pad
	for _, v := range t.Values {
		switch v.Kind {
		case KindNumber:
			n += 32
		case KindString:
			n += uvarintLen(uint64(len(v.Str))) + len(v.Str)
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// DecodeTuple decodes one tuple (under schema s) from the front of data,
// returning the tuple and the number of bytes consumed.
func DecodeTuple(s *Schema, data []byte) (Tuple, int, error) {
	return DecodeTupleInto(s, data, make([]Value, len(s.Attrs)))
}

// DecodeTupleInto is DecodeTuple writing the values into vals, which must
// hold len(s.Attrs) elements and becomes the tuple's Values: a caller
// decoding many tuples carves them all out of one arena.
func DecodeTupleInto(s *Schema, data []byte, vals []Value) (Tuple, int, error) {
	r := recordReader{data: data}
	d, err := r.float()
	if err != nil {
		return Tuple{}, 0, err
	}
	t := Tuple{D: d, Values: vals}
	for i, a := range s.Attrs {
		switch a.Kind {
		case KindNumber:
			n, err := r.trapezoid()
			if err != nil {
				return Tuple{}, 0, err
			}
			t.Values[i] = Num(n)
		case KindString:
			str, err := r.str()
			if err != nil {
				return Tuple{}, 0, err
			}
			t.Values[i] = Str(str)
		default:
			return Tuple{}, 0, errUnknownKind(a.Kind)
		}
	}
	if err := r.need(s.Pad); err != nil {
		return Tuple{}, 0, err
	}
	return t, r.pos + s.Pad, nil
}

// recordReader reads the fields of one encoded tuple front to back: the
// one parser of DecodeTupleInto and Columns.AppendRecord.
type recordReader struct {
	data []byte
	pos  int
}

// need reports a truncated tuple when fewer than n bytes are left.
func (r *recordReader) need(n int) error {
	if len(r.data)-r.pos < n {
		return fmt.Errorf("frel: truncated tuple: need %d bytes at offset %d, have %d", n, r.pos, len(r.data)-r.pos)
	}
	return nil
}

func (r *recordReader) float() (float64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return f, nil
}

func (r *recordReader) trapezoid() (fuzzy.Trapezoid, error) {
	if err := r.need(32); err != nil {
		return fuzzy.Trapezoid{}, err
	}
	b := r.data[r.pos : r.pos+32]
	r.pos += 32
	return fuzzy.Trapezoid{
		A: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		B: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		C: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		D: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}, nil
}

func (r *recordReader) str() (string, error) {
	n, used := binary.Uvarint(r.data[r.pos:])
	if used <= 0 {
		return "", fmt.Errorf("frel: corrupt string length at offset %d", r.pos)
	}
	r.pos += used
	if n > uint64(len(r.data)-r.pos) {
		return "", fmt.Errorf("frel: truncated tuple: need %d bytes at offset %d, have %d", n, r.pos, len(r.data)-r.pos)
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func errUnknownKind(k Kind) error { return fmt.Errorf("frel: unknown attribute kind %v", k) }

// SortKey is the sort key of one attribute value, ordered by CompareKeys
// as Compare orders the value: a NUMBER value's trapezoid corners, a
// STRING value's bytes.
type SortKey struct {
	A, D, B, C float64
	Str        []byte
}

// DecodeSortKey reads the sort key of attribute attr from an encoded tuple
// (under schema s) without decoding the tuple: it steps over the degree and
// the attributes before attr and reads attr's corners, or its string bytes
// (Str then aliases data). A record too short to hold the key, or with a
// corrupt string length on the way to it, is an error.
func DecodeSortKey(s *Schema, data []byte, attr int) (SortKey, error) {
	if attr < 0 || attr >= len(s.Attrs) {
		return SortKey{}, fmt.Errorf("frel: sort key on attribute %d of schema %q with %d attributes", attr, s.Name, len(s.Attrs))
	}
	pos := 8
	for i := 0; ; i++ {
		switch s.Attrs[i].Kind {
		case KindNumber:
			if len(data)-pos < 32 {
				return SortKey{}, fmt.Errorf("frel: truncated tuple: need 32 bytes at offset %d, have %d", pos, max(len(data)-pos, 0))
			}
			if i == attr {
				return SortKey{
					A: math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])),
					B: math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:])),
					C: math.Float64frombits(binary.LittleEndian.Uint64(data[pos+16:])),
					D: math.Float64frombits(binary.LittleEndian.Uint64(data[pos+24:])),
				}, nil
			}
			pos += 32
		case KindString:
			if pos > len(data) {
				return SortKey{}, fmt.Errorf("frel: truncated tuple: need a string length at offset %d, have %d bytes", pos, len(data))
			}
			n, used := binary.Uvarint(data[pos:])
			if used <= 0 {
				return SortKey{}, fmt.Errorf("frel: corrupt string length at offset %d", pos)
			}
			pos += used
			if n > uint64(len(data)-pos) {
				return SortKey{}, fmt.Errorf("frel: truncated tuple: need %d bytes at offset %d, have %d", n, pos, len(data)-pos)
			}
			end := pos + int(n)
			if i == attr {
				return SortKey{Str: data[pos:end:end]}, nil
			}
			pos = end
		default:
			return SortKey{}, fmt.Errorf("frel: unknown attribute kind %v", s.Attrs[i].Kind)
		}
	}
}

// ValueSortKey is the sort key of a decoded value, the one DecodeSortKey
// reads from the value's encoding.
func ValueSortKey(v Value) SortKey {
	if v.Kind == KindString {
		return SortKey{Str: []byte(v.Str)}
	}
	return SortKey{A: v.Num.A, B: v.Num.B, C: v.Num.C, D: v.Num.D}
}
