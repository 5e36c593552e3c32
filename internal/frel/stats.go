package frel

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// This file implements the per-relation statistics the planner's cost
// model feeds on (the paper's Sections 3 and 9 analyze costs in terms of
// relation cardinalities, join selectivities and sort work): tuple
// counts, per-attribute support-interval extents, a support-width
// histogram, and a distinct-support estimate. Statistics are a function
// of the tuples in append order, so they can be maintained incrementally
// and stored: a relation's heap file keeps them from its creation on and
// records them, in the exact encoding of AppendStats, in every checkpoint
// (see storage.HeapFile.Stats).

const (
	// kmvK is the distinct-estimate sketch size: up to kmvK distinct
	// values the count is exact; beyond that the k-minimum-values
	// estimator extrapolates from the k-th smallest hash.
	kmvK = 64

	// widthBuckets is the number of buckets in the support-width
	// histogram: bucket 0 holds crisp values (width 0), bucket i holds
	// widths in [2^(i-1), 2^i), and the last bucket is open-ended.
	widthBuckets = 8
)

// AttrStats summarizes the values observed in one attribute column.
type AttrStats struct {
	// Numeric counts the numeric (possibility-distribution) values; the
	// extent and width fields below cover only these.
	Numeric int64
	// MinLo and MaxHi bound the observed supports: the smallest support
	// lower bound and the largest support upper bound.
	MinLo, MaxHi float64
	// WidthSum accumulates support widths (Trapezoid D−A), so
	// WidthSum/Numeric is the mean support-interval width.
	WidthSum float64
	// WidthHist is the log2 histogram of support widths; bucket 0 counts
	// crisp values.
	WidthHist [widthBuckets]int64

	sketch kmvSketch
}

// TableStats holds the statistics of one relation: its cardinality and
// one AttrStats per schema attribute.
type TableStats struct {
	Rows  int64
	Attrs []AttrStats

	key []byte // scratch buffer for hashing value keys
}

// NewTableStats returns empty statistics for a relation of n attributes.
func NewTableStats(n int) *TableStats {
	return &TableStats{Attrs: make([]AttrStats, n)}
}

// Observe folds one tuple into the statistics. Tuples whose arity does
// not match the schema contribute only to the row count.
func (ts *TableStats) Observe(t Tuple) {
	ts.Rows++
	if len(t.Values) != len(ts.Attrs) {
		return
	}
	for i, v := range t.Values {
		a := &ts.Attrs[i]
		ts.key = v.appendKey(ts.key[:0])
		a.sketch.add(fnv1a(ts.key))
		if v.Kind != KindNumber {
			continue
		}
		lo, hi := v.Num.A, v.Num.D
		if a.Numeric == 0 || lo < a.MinLo {
			a.MinLo = lo
		}
		if a.Numeric == 0 || hi > a.MaxHi {
			a.MaxHi = hi
		}
		a.Numeric++
		w := hi - lo
		a.WidthSum += w
		a.WidthHist[widthBucket(w)]++
	}
}

// Clone returns an independent deep copy of the statistics, safe to read
// while the original keeps being maintained incrementally by a writer.
func (ts *TableStats) Clone() *TableStats {
	c := &TableStats{Rows: ts.Rows, Attrs: make([]AttrStats, len(ts.Attrs))}
	copy(c.Attrs, ts.Attrs)
	for i := range c.Attrs {
		c.Attrs[i].sketch.h = append([]uint64(nil), ts.Attrs[i].sketch.h...)
	}
	return c
}

// ObserveAll folds a slice of tuples into the statistics.
func (ts *TableStats) ObserveAll(tuples []Tuple) {
	for _, t := range tuples {
		ts.Observe(t)
	}
}

// Distinct estimates the number of distinct values in attribute i.
func (ts *TableStats) Distinct(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) {
		return 0
	}
	return ts.Attrs[i].sketch.distinct()
}

// AvgWidth returns the mean support-interval width of attribute i's
// numeric values (0 when none were observed).
func (ts *TableStats) AvgWidth(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) || ts.Attrs[i].Numeric == 0 {
		return 0
	}
	return ts.Attrs[i].WidthSum / float64(ts.Attrs[i].Numeric)
}

// Span returns the extent of attribute i's observed supports
// (MaxHi − MinLo; 0 when no numeric values were observed).
func (ts *TableStats) Span(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) || ts.Attrs[i].Numeric == 0 {
		return 0
	}
	return ts.Attrs[i].MaxHi - ts.Attrs[i].MinLo
}

// widthBucket maps a support width to its histogram bucket: 0 for a
// width that is not positive, including NaN (the corners of a value at a
// single infinity, or NaN corners), 1 + ⌊log2 w⌋ clamped to
// [1, widthBuckets−1] otherwise, so +Inf lands in the open-ended last
// bucket. Frexp's exponent is ⌊log2 w⌋ + 1 exactly; math.Log2 is
// consulted only where it may round up to the next integer (a fraction
// within 1e-4 of 1), so every finite width keeps the bucket the Log2
// formula gives it.
func widthBucket(w float64) int {
	if !(w > 0) {
		return 0
	}
	if math.IsInf(w, 1) {
		return widthBuckets - 1
	}
	frac, b := math.Frexp(w)
	if frac > 1-1e-4 {
		b = 1 + int(math.Floor(math.Log2(w)))
	}
	return min(max(b, 1), widthBuckets-1)
}

// AppendStats appends the binary encoding of ts to dst. The encoding is
// exact: DecodeStats returns statistics that deep-equal ts (float fields
// by bit pattern, the KMV sketch hash for hash), so two statistics are
// equal exactly when their encodings are. Layout, integers as uvarints and
// floats as little-endian IEEE bits:
//
//	Rows, attribute count, then per attribute:
//	  Numeric, MinLo, MaxHi, WidthSum, the widthBuckets histogram counts,
//	  the sketch length and its hashes (ascending, 8 bytes each)
func AppendStats(dst []byte, ts *TableStats) []byte {
	dst = binary.AppendUvarint(dst, uint64(ts.Rows))
	dst = binary.AppendUvarint(dst, uint64(len(ts.Attrs)))
	for i := range ts.Attrs {
		a := &ts.Attrs[i]
		dst = binary.AppendUvarint(dst, uint64(a.Numeric))
		for _, f := range [3]float64{a.MinLo, a.MaxHi, a.WidthSum} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		for _, c := range a.WidthHist {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		dst = binary.AppendUvarint(dst, uint64(len(a.sketch.h)))
		for _, h := range a.sketch.h {
			dst = binary.LittleEndian.AppendUint64(dst, h)
		}
	}
	return dst
}

// DecodeStats decodes statistics encoded by AppendStats. Malformed input
// (truncated, trailing bytes, an oversized or unsorted sketch) is an
// error.
func DecodeStats(data []byte) (*TableStats, error) {
	d := statsDecoder{b: data}
	ts := &TableStats{Rows: int64(d.uvarint())}
	n := d.uvarint()
	if n > uint64(len(data)) { // every attribute takes bytes
		return nil, fmt.Errorf("frel: statistics of %d attributes in %d bytes", n, len(data))
	}
	ts.Attrs = make([]AttrStats, n)
	for i := range ts.Attrs {
		a := &ts.Attrs[i]
		a.Numeric = int64(d.uvarint())
		a.MinLo, a.MaxHi, a.WidthSum = d.float(), d.float(), d.float()
		for j := range a.WidthHist {
			a.WidthHist[j] = int64(d.uvarint())
		}
		k := d.uvarint()
		if k > kmvK {
			return nil, fmt.Errorf("frel: statistics sketch of %d hashes, at most %d", k, kmvK)
		}
		if k > 0 {
			a.sketch.h = make([]uint64, k)
		}
		for j := range a.sketch.h {
			a.sketch.h[j] = d.uint64()
			if j > 0 && a.sketch.h[j] <= a.sketch.h[j-1] {
				return nil, fmt.Errorf("frel: statistics sketch is not strictly ascending")
			}
		}
	}
	if d.bad || d.off != len(data) {
		return nil, fmt.Errorf("frel: malformed statistics encoding of %d bytes", len(data))
	}
	return ts, nil
}

// statsDecoder reads AppendStats fields, latching any failure.
type statsDecoder struct {
	b   []byte
	off int
	bad bool
}

func (d *statsDecoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

func (d *statsDecoder) uint64() uint64 {
	if d.bad || len(d.b)-d.off < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *statsDecoder) float() float64 { return math.Float64frombits(d.uint64()) }

// kmvSketch is a k-minimum-values distinct counter: it retains the kmvK
// smallest distinct 64-bit hashes seen. With fewer than kmvK retained
// hashes the distinct count is exact; otherwise the k-th smallest hash's
// position in the hash space extrapolates the total.
type kmvSketch struct {
	h []uint64 // sorted ascending, at most kmvK entries
}

func (s *kmvSketch) add(h uint64) {
	// A full sketch rejects most hashes of a large relation here, before
	// the search: every relation heap observes each tuple it is loaded
	// with.
	if len(s.h) == kmvK && h >= s.h[kmvK-1] {
		return
	}
	i := sort.Search(len(s.h), func(j int) bool { return s.h[j] >= h })
	if i < len(s.h) && s.h[i] == h {
		return
	}
	if len(s.h) < kmvK {
		s.h = append(s.h, 0)
		copy(s.h[i+1:], s.h[i:])
		s.h[i] = h
		return
	}
	copy(s.h[i+1:], s.h[i:kmvK-1])
	s.h[i] = h
}

func (s *kmvSketch) distinct() float64 {
	if len(s.h) < kmvK {
		return float64(len(s.h))
	}
	// (k−1) values fall below the k-th smallest hash, which sits at
	// fraction h/2^64 of the hash space.
	frac := float64(s.h[kmvK-1]) / math.Exp2(64)
	if frac <= 0 {
		return float64(kmvK)
	}
	return float64(kmvK-1) / frac
}

// fnv1a is the 64-bit FNV-1a hash of b with an avalanche finalizer: the
// KMV estimator needs uniformity over the whole 64-bit range, which raw
// FNV does not provide for short keys.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
