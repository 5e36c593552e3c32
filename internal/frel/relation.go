package frel

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// Relation is a fuzzy relation held in memory: a schema plus a multiset of
// fuzzy tuples. Stored relations are heap files (storage.HeapFile); a
// Relation is what is loaded into one, an intermediate or answer of the
// engine, or the naive evaluator's working set.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Append adds tuples to the relation.
func (r *Relation) Append(ts ...Tuple) {
	r.Tuples = append(r.Tuples, ts...)
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{Schema: r.Schema.Clone()}
	c.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// SortBy sorts the tuples in place by the named attribute under Compare,
// the order required by the extended merge-join.
func (r *Relation) SortBy(attr string) error {
	i, err := r.Schema.Resolve(attr)
	if err != nil {
		return err
	}
	slices.SortStableFunc(r.Tuples, func(a, b Tuple) int {
		return Compare(a.Values[i], b.Values[i])
	})
	return nil
}

// DedupMax removes duplicate tuples (identical values), keeping for each
// distinct value combination the maximum membership degree — the fuzzy OR
// of Section 2.2 ("the highest membership degree of the identical name
// pairs will be chosen for the answer"). Tuple order of first occurrence
// is preserved. It is the naive oracle's duplicate elimination, keyed by
// Tuple.Key, and deliberately not the engine's ColumnSet: the differential
// suites compare the engine against the oracle, and the two should not
// share their implementation of value identity.
func (r *Relation) DedupMax() {
	seen := make(map[string]int, len(r.Tuples))
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		k := t.Key()
		if i, ok := seen[k]; ok {
			if t.D > out[i].D {
				out[i].D = t.D
			}
			continue
		}
		seen[k] = len(out)
		out = append(out, t)
	}
	r.Tuples = out
}

// Cut is the threshold of a WITH clause: D >= Z, or D > Z when Strict.
// The zero Cut is the implicit clause of every query, which keeps every
// tuple of positive degree.
type Cut struct {
	Z      float64
	Strict bool
}

// Floor returns the least degree the cut admits: Z, or for a strict cut
// the next float64 above Z. A float64 d exceeds Z exactly when d >= the
// next float64 above Z, so whoever compares degrees with Floor drops
// exactly what the cut drops, whichever operator the clause was written
// with.
func (c Cut) Floor() float64 {
	if c.Strict {
		return math.Nextafter(c.Z, math.Inf(1))
	}
	return c.Z
}

// Admits reports whether a tuple of degree d survives the cut. A degree
// of 0 or below never does.
func (c Cut) Admits(d float64) bool { return d > 0 && d >= c.Floor() }

// String renders the cut as a WITH clause writes it after D, with the
// shortest decimal that parses back to Z: ">= 0.5" or "> 0.5".
func (c Cut) String() string {
	op := ">="
	if c.Strict {
		op = ">"
	}
	return op + " " + strconv.FormatFloat(c.Z, 'g', -1, 64)
}

// Threshold removes the tuples the cut does not admit, the effect of a
// WITH clause. Tuples with D <= 0 are never part of a fuzzy relation, so
// the zero Cut removes exactly those.
func (r *Relation) Threshold(c Cut) {
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		if c.Admits(t.D) {
			out = append(out, t)
		}
	}
	r.Tuples = out
}

// Equal reports whether two relations contain the same fuzzy set of
// tuples: the same distinct values with membership degrees equal within
// tol, regardless of tuple order. It is the notion of query equivalence
// used by the paper's theorems ("not only the answers contain the same set
// of tuples but also the corresponding tuples have the same membership
// degree", Section 2.3).
func (r *Relation) Equal(s *Relation, tol float64) bool {
	collect := func(rel *Relation) map[string]float64 {
		m := make(map[string]float64, len(rel.Tuples))
		for _, t := range rel.Tuples {
			if t.D <= 0 {
				continue
			}
			k := t.Key()
			if t.D > m[k] {
				m[k] = t.D
			}
		}
		return m
	}
	a, b := collect(r), collect(s)
	if len(a) != len(b) {
		return false
	}
	for k, d := range a {
		e, ok := b[k]
		if !ok || d-e > tol || e-d > tol {
			return false
		}
	}
	return true
}

// String renders the relation, one tuple per line, for debugging and the
// interactive shell.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
