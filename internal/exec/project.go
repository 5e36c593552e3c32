package exec

import (
	"repro/internal/frel"
)

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

// Open implements Source. The non-dedup projection writes the projected
// values of each batch into one fresh arena (a single allocation per batch
// instead of one per tuple); the dedup form hashes the projected columns
// of every input tuple in place, materializes the distinct rows into a
// set presized to the input's size when the input knows it (at most
// dedupPresizeMax rows: the input's size bounds the distinct rows, it does
// not predict them), and replays them.
func (p *Project) Open() (BatchIterator, error) {
	in, err := p.Src.Open()
	if err != nil {
		return nil, err
	}
	if !p.Dedup {
		return &projectBatchIterator{in: in, idx: p.idx}, nil
	}
	defer in.Close()
	set := frel.NewRowSet(len(p.idx))
	if n := batchesRemaining(in); n > 0 {
		set.Grow(min(n, dedupPresizeMax))
	}
	for {
		b, ok := in.NextBatch()
		if !ok {
			break
		}
		for _, t := range b {
			set.Add(t.Values, p.setIdx, t.D)
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	return &memBatchIterator{tuples: set.Tuples()}, nil
}

// dedupPresizeMax caps the rows a duplicate-eliminating projection
// reserves up front, about 1.5 MB of set: a low-cardinality projection of
// a large input grows its set by doubling from there instead of reserving
// a row per input tuple.
const dedupPresizeMax = 1 << 15

type projectBatchIterator struct {
	in  BatchIterator
	idx []int
	out []frel.Tuple
}

func (it *projectBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	b, ok := it.in.NextBatch()
	if !ok {
		return nil, false
	}
	it.out = it.out[:0]
	arena := make([]frel.Value, 0, len(b)*len(it.idx))
	for _, t := range b {
		off := len(arena)
		for _, i := range it.idx {
			arena = append(arena, t.Values[i])
		}
		it.out = append(it.out, frel.Tuple{Values: arena[off:len(arena):len(arena)], D: t.D})
	}
	return it.out, true
}

func (it *projectBatchIterator) Err() error { return it.in.Err() }
func (it *projectBatchIterator) Close()     { it.in.Close() }
