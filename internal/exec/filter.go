package exec

import (
	"fmt"

	"repro/internal/frel"
)

// Pred evaluates the satisfaction degree of a condition on one tuple
// (Section 2.2 of the paper). Implementations return a value in [0, 1].
type Pred func(frel.Tuple) float64

// JoinPred evaluates the satisfaction degree of a condition across a pair
// of tuples.
type JoinPred func(left, right frel.Tuple) float64

// TruePred is the always-satisfied predicate.
func TruePred(frel.Tuple) float64 { return 1 }

// And combines predicates with fuzzy AND (minimum), short-circuiting at 0.
func And(ps ...Pred) Pred {
	if len(ps) == 0 {
		return TruePred
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return func(t frel.Tuple) float64 {
		d := 1.0
		for _, p := range ps {
			if g := p(t); g < d {
				d = g
				if d == 0 {
					return 0
				}
			}
		}
		return d
	}
}

// Filter passes through tuples with degree min(t.D, pred(t)), dropping
// those whose degree is 0 — a fuzzy selection.
type Filter struct {
	Src  Source
	Pred Pred
}

// NewFilter builds a fuzzy selection.
func NewFilter(src Source, pred Pred) *Filter { return &Filter{Src: src, Pred: pred} }

// Schema implements Source.
func (f *Filter) Schema() *frel.Schema { return f.Src.Schema() }

// Open implements Source.
func (f *Filter) Open() (Iterator, error) {
	it, err := f.Src.Open()
	if err != nil {
		return nil, err
	}
	return &filterIterator{in: it, pred: f.Pred}, nil
}

type filterIterator struct {
	in   Iterator
	pred Pred
}

func (it *filterIterator) Next() (frel.Tuple, bool) {
	for {
		t, ok := it.in.Next()
		if !ok {
			return frel.Tuple{}, false
		}
		d := t.D
		if g := it.pred(t); g < d {
			d = g
		}
		if d <= 0 {
			continue
		}
		t.D = d
		return t, true
	}
}

func (it *filterIterator) Err() error { return it.in.Err() }
func (it *filterIterator) Close()     { it.in.Close() }

// Project projects tuples onto a subset of attributes and, when Dedup is
// set, eliminates duplicates keeping the maximum membership degree (fuzzy
// OR), the paper's answer-construction rule. Deduplication materializes
// the distinct tuples before emitting them.
type Project struct {
	Src   Source
	Refs  []string
	Dedup bool

	schema *frel.Schema
	idx    []int
	// setIdx is idx as the dedup set takes it: nil when the projection
	// keeps every source column in place, so the set keeps the source rows
	// by reference instead of copying them.
	setIdx []int
}

// NewProject builds a projection onto the given attribute references.
func NewProject(src Source, refs []string, dedup bool) (*Project, error) {
	schema, idx, err := src.Schema().Project(refs)
	if err != nil {
		return nil, err
	}
	p := &Project{Src: src, Refs: refs, Dedup: dedup, schema: schema, idx: idx, setIdx: idx}
	identity := len(idx) == len(src.Schema().Attrs)
	for i, c := range idx {
		identity = identity && c == i
	}
	if identity {
		p.setIdx = nil
	}
	return p, nil
}

// Schema implements Source.
func (p *Project) Schema() *frel.Schema { return p.schema }

// Open implements Source.
func (p *Project) Open() (Iterator, error) {
	it, err := p.Src.Open()
	if err != nil {
		return nil, err
	}
	if !p.Dedup {
		return &projectIterator{in: it, idx: p.idx}, nil
	}
	// Materialize with max-degree dedup, then emit.
	defer it.Close()
	set := frel.NewRowSet(len(p.idx))
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		set.Add(t.Values, p.setIdx, t.D)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return &memIterator{tuples: set.Tuples()}, nil
}

type projectIterator struct {
	in  Iterator
	idx []int
}

func (it *projectIterator) Next() (frel.Tuple, bool) {
	t, ok := it.in.Next()
	if !ok {
		return frel.Tuple{}, false
	}
	return t.Project(it.idx), true
}

func (it *projectIterator) Err() error { return it.in.Err() }
func (it *projectIterator) Close()     { it.in.Close() }

// Threshold drops tuples whose degree is below z (and always those with
// degree 0) — the WITH D >= z clause.
type Threshold struct {
	Src Source
	Z   float64
}

// NewThreshold builds a WITH-clause filter.
func NewThreshold(src Source, z float64) *Threshold { return &Threshold{Src: src, Z: z} }

// Schema implements Source.
func (th *Threshold) Schema() *frel.Schema { return th.Src.Schema() }

// Open implements Source.
func (th *Threshold) Open() (Iterator, error) {
	it, err := th.Src.Open()
	if err != nil {
		return nil, err
	}
	return &thresholdIterator{in: it, z: th.Z}, nil
}

type thresholdIterator struct {
	in Iterator
	z  float64
}

func (it *thresholdIterator) Next() (frel.Tuple, bool) {
	for {
		t, ok := it.in.Next()
		if !ok {
			return frel.Tuple{}, false
		}
		if t.D <= 0 || t.D < it.z {
			continue
		}
		return t, true
	}
}

func (it *thresholdIterator) Err() error { return it.in.Err() }
func (it *thresholdIterator) Close()     { it.in.Close() }

// RefDegree builds a Pred computing d(attr op value) for a fixed
// right-hand value.
func RefDegree(schema *frel.Schema, ref string, op OpFunc) (Pred, error) {
	i, err := schema.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return func(t frel.Tuple) float64 { return op(t.Values[i]) }, nil
}

// OpFunc computes a degree from a single value; used to build predicates
// against constants.
type OpFunc func(frel.Value) float64

// errSource is a Source that fails on Open; used by operators that detect
// configuration errors lazily.
type errSource struct{ err error }

func (e errSource) Schema() *frel.Schema    { return &frel.Schema{} }
func (e errSource) Open() (Iterator, error) { return nil, e.err }

// Errf builds a Source that fails with a formatted error.
func Errf(format string, args ...interface{}) Source {
	return errSource{fmt.Errorf(format, args...)}
}
