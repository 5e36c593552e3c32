package frel

import (
	"unsafe"

	"repro/internal/fuzzy"
)

// Columns holds the tuples of one schema attribute by attribute, in one
// order: the array-per-attribute layout the engine's sweeps read. D holds
// the membership degrees; attribute i is held by Num[i] when it is
// numeric and by Str[i] when it is a string, the other slice being nil.
// A numeric attribute is a column of trapezoids, its four corners in
// place, so columns over an all-numeric schema hold no pointer beyond
// their slice headers: 8 + 32 bytes per tuple and numeric attribute, none
// of them scanned by the garbage collector.
//
// Columns that serve a sweep or the sort cache are read-only: nothing
// writes them once they are built.
type Columns struct {
	D   []float64
	Num [][]fuzzy.Trapezoid
	Str [][]string
}

// NewColumns returns empty columns of schema s with room for n tuples.
func NewColumns(s *Schema, n int) *Columns {
	c := &Columns{
		D:   make([]float64, 0, n),
		Num: make([][]fuzzy.Trapezoid, len(s.Attrs)),
		Str: make([][]string, len(s.Attrs)),
	}
	for i, a := range s.Attrs {
		if a.Kind == KindString {
			c.Str[i] = make([]string, 0, n)
		} else {
			c.Num[i] = make([]fuzzy.Trapezoid, 0, n)
		}
	}
	return c
}

// Len returns the number of tuples.
func (c *Columns) Len() int { return len(c.D) }

// Value returns the value of attribute col of tuple i.
func (c *Columns) Value(i, col int) Value {
	if num := c.Num[col]; num != nil {
		return Num(num[i])
	}
	return Str(c.Str[col][i])
}

// AppendValues appends the values of tuple i to dst, in schema order.
func (c *Columns) AppendValues(dst []Value, i int) []Value {
	for col := range c.Num {
		dst = append(dst, c.Value(i, col))
	}
	return dst
}

// Relation returns the tuples as a relation of schema s (the columns'
// schema), built in one pass: one tuple slice and one value arena hold
// them all.
func (c *Columns) Relation(s *Schema) *Relation {
	n, w := c.Len(), len(c.Num)
	tuples := make([]Tuple, n)
	arena := make([]Value, n*w)
	for i := range tuples {
		tuples[i] = Tuple{Values: arena[i*w : (i+1)*w : (i+1)*w], D: c.D[i]}
	}
	for col := range w {
		if num := c.Num[col]; num != nil {
			for i, t := range num {
				arena[i*w+col].Num = t // the zero Kind is KindNumber
			}
		} else {
			for i, str := range c.Str[col] {
				arena[i*w+col] = Str(str)
			}
		}
	}
	return &Relation{Schema: s, Tuples: tuples}
}

// Threshold keeps, in place and in order, the tuples a WITH clause
// admits (see Relation.Threshold), and returns how many it dropped.
func (c *Columns) Threshold(cut Cut) int {
	n := 0
	for i, d := range c.D {
		if !cut.Admits(d) {
			continue
		}
		if n < i {
			c.D[n] = d
			for col := range c.Num {
				if num := c.Num[col]; num != nil {
					num[n] = num[i]
				} else {
					c.Str[col][n] = c.Str[col][i]
				}
			}
		}
		n++
	}
	dropped := c.Len() - n
	c.Truncate(n)
	return dropped
}

// Key returns tuple i's canonical key, Tuple.Key of its values.
func (c *Columns) Key(i int) string {
	var b []byte
	for col := range c.Num {
		b = c.Value(i, col).appendKey(b)
	}
	return string(b)
}

// AppendTuple appends t, whose values must match the columns' kinds.
func (c *Columns) AppendTuple(t Tuple) {
	c.D = append(c.D, t.D)
	for i, v := range t.Values {
		if c.Num[i] != nil {
			c.Num[i] = append(c.Num[i], v.Num)
		} else {
			c.Str[i] = append(c.Str[i], v.Str)
		}
	}
}

// AppendRecord decodes one encoded tuple of schema s (the columns' schema)
// from the front of data straight into the columns. After an error the
// columns hold a partial tuple and are to be discarded.
func (c *Columns) AppendRecord(s *Schema, data []byte) error {
	r := recordReader{data: data}
	d, err := r.float()
	if err != nil {
		return err
	}
	for i, a := range s.Attrs {
		switch a.Kind {
		case KindNumber:
			t, err := r.trapezoid()
			if err != nil {
				return err
			}
			c.Num[i] = append(c.Num[i], t)
		case KindString:
			str, err := r.str()
			if err != nil {
				return err
			}
			c.Str[i] = append(c.Str[i], str)
		default:
			return errUnknownKind(a.Kind)
		}
	}
	if err := r.need(s.Pad); err != nil {
		return err
	}
	c.D = append(c.D, d)
	return nil
}

// Gather returns new columns holding tuple perm[0], perm[1], … of c, in
// that order, of the columns cols lists, in that order (nil: every
// column), each column allocated once at its exact size.
func (c *Columns) Gather(perm []int32, cols []int) *Columns {
	if cols == nil {
		cols = allAttrs(len(c.Num))
	}
	out := &Columns{
		D:   make([]float64, len(perm)),
		Num: make([][]fuzzy.Trapezoid, len(cols)),
		Str: make([][]string, len(cols)),
	}
	for i, p := range perm {
		out.D[i] = c.D[p]
	}
	for j, col := range cols {
		if src := c.Num[col]; src != nil {
			dst := make([]fuzzy.Trapezoid, len(perm))
			for i, p := range perm {
				dst[i] = src[p]
			}
			out.Num[j] = dst
		} else {
			src, dst := c.Str[col], make([]string, len(perm))
			for i, p := range perm {
				dst[i] = src[p]
			}
			out.Str[j] = dst
		}
	}
	return out
}

// allAttrs lists the attributes 0, 1, …, n−1.
func allAttrs(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// Bytes returns the memory the columns' tuples take: the degree and every
// numeric corner, plus each string's header and bytes.
func (c *Columns) Bytes() int64 {
	n := int64(c.Len())
	size := n * int64(unsafe.Sizeof(float64(0)))
	for col := range c.Num {
		if c.Num[col] != nil {
			size += n * int64(unsafe.Sizeof(fuzzy.Trapezoid{}))
			continue
		}
		size += n * int64(unsafe.Sizeof(""))
		for _, s := range c.Str[col] {
			size += int64(len(s))
		}
	}
	return size
}

// ColumnBytes is the memory n tuples of schema s take as columns, leaving
// out the bytes of their strings.
func ColumnBytes(s *Schema, n int64) int64 {
	size := n * int64(unsafe.Sizeof(float64(0)))
	for _, a := range s.Attrs {
		if a.Kind == KindString {
			size += n * int64(unsafe.Sizeof(""))
		} else {
			size += n * int64(unsafe.Sizeof(fuzzy.Trapezoid{}))
		}
	}
	return size
}
