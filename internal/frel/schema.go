package frel

import (
	"fmt"
	"strings"
)

// Attribute is one column of a fuzzy relation schema. The membership
// degree D is not an Attribute: it is carried by every tuple implicitly
// (the paper's system-supplied attribute D).
type Attribute struct {
	Name string
	Kind Kind
}

// Schema describes the attributes of a fuzzy relation. Name is the
// relation name or query alias used to resolve qualified references such
// as "F.AGE"; derived schemas (join results) may instead carry qualified
// attribute names directly.
//
// Pad is the number of zero bytes appended to every serialized tuple; the
// tuple-size experiment of the paper (Table 4) uses it to grow tuples from
// 128 to 2048 bytes without changing their logical content.
type Schema struct {
	Name  string
	Attrs []Attribute
	Pad   int
}

// NewSchema builds a schema from a relation name and attributes.
func NewSchema(name string, attrs ...Attribute) *Schema {
	return &Schema{Name: name, Attrs: attrs}
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Name: s.Name, Pad: s.Pad}
	c.Attrs = append([]Attribute(nil), s.Attrs...)
	return c
}

// WithName returns a copy of the schema renamed to alias, used when a
// relation is given an alias in a FROM clause.
func (s *Schema) WithName(alias string) *Schema {
	c := s.Clone()
	c.Name = alias
	return c
}

// splitQualified splits "F.AGE" into ("F", "AGE"); an unqualified name
// yields an empty qualifier.
func splitQualified(name string) (qual, attr string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// Resolve maps an (optionally qualified) attribute reference to its index
// in the schema. Matching is case-insensitive. A reference matches an
// attribute if it is the attribute's full name, or its unqualified part
// matches an unqualified attribute of a schema with the referenced
// qualifier, or the reference is unqualified and matches the unqualified
// part of exactly one attribute. Ambiguous and unknown references yield an
// error.
func (s *Schema) Resolve(name string) (int, error) {
	i := s.resolve(name)
	if i == -2 {
		return 0, fmt.Errorf("frel: ambiguous attribute reference %q in relation %q", name, s.Name)
	}
	if i < 0 {
		return 0, fmt.Errorf("frel: unknown attribute %q in relation %q", name, s.Name)
	}
	return i, nil
}

// resolve is Resolve without formatting an error: the attribute's index,
// -1 for an unknown reference, -2 for an ambiguous one.
func (s *Schema) resolve(name string) int {
	qual, attr := splitQualified(name)
	found := -1
	for i, a := range s.Attrs {
		aQual, aAttr := splitQualified(a.Name)
		if aQual == "" {
			aQual = s.Name
		}
		var match bool
		switch {
		case strings.EqualFold(a.Name, name):
			match = true
		case qual != "":
			match = strings.EqualFold(aAttr, attr) && strings.EqualFold(aQual, qual)
		default:
			match = strings.EqualFold(aAttr, attr)
		}
		if !match {
			continue
		}
		if found >= 0 && !s.Attrs[found].Identical(a) {
			return -2
		}
		if found < 0 {
			found = i
		}
	}
	return found
}

// Identical reports whether two attributes have the same name and kind.
func (a Attribute) Identical(b Attribute) bool { return a == b }

// Has reports whether the reference resolves in this schema.
func (s *Schema) Has(name string) bool { return s.resolve(name) >= 0 }

// Qualified returns the attribute's fully qualified name in this schema.
func (s *Schema) Qualified(i int) string {
	name := s.Attrs[i].Name
	if strings.IndexByte(name, '.') >= 0 || s.Name == "" {
		return name
	}
	return s.Name + "." + name
}

// Join returns the schema of the concatenation of tuples of s and t, with
// every attribute fully qualified so that references stay unambiguous.
func (s *Schema) Join(t *Schema) *Schema {
	out := &Schema{Name: ""}
	for i := range s.Attrs {
		out.Attrs = append(out.Attrs, Attribute{Name: s.Qualified(i), Kind: s.Attrs[i].Kind})
	}
	for i := range t.Attrs {
		out.Attrs = append(out.Attrs, Attribute{Name: t.Qualified(i), Kind: t.Attrs[i].Kind})
	}
	return out
}

// Project returns the schema of a projection onto the given references,
// along with the source attribute indexes.
func (s *Schema) Project(refs []string) (*Schema, []int, error) {
	out := &Schema{Name: s.Name}
	idx := make([]int, 0, len(refs))
	for _, r := range refs {
		i, err := s.Resolve(r)
		if err != nil {
			return nil, nil, err
		}
		idx = append(idx, i)
		out.Attrs = append(out.Attrs, Attribute{Name: s.Qualified(i), Kind: s.Attrs[i].Kind})
	}
	return out, idx, nil
}

// String renders the schema.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Kind)
	}
	b.WriteString(", D)")
	return b.String()
}
