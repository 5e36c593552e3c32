package exec

import (
	"repro/internal/frel"
)

// Project projects tuples onto a subset of attributes and eliminates
// duplicates keeping the maximum membership degree (fuzzy OR), the paper's
// answer-construction rule. It materializes the distinct tuples, as
// columns, before serving them.
type Project struct {
	Src  Source
	Refs []string

	schema *frel.Schema
	idx    []int
}

// NewProject builds a projection onto the given attribute references.
func NewProject(src Source, refs []string) (*Project, error) {
	schema, idx, err := src.Schema().Project(refs)
	if err != nil {
		return nil, err
	}
	return &Project{Src: src, Refs: refs, schema: schema, idx: idx}, nil
}

// Schema implements Source.
func (p *Project) Schema() *frel.Schema { return p.schema }

// Open implements Source. It enters every input row into one column set
// (frel.ColumnSet), sized once to the input's size when the input knows
// it (at most dedupPresizeMax rows: the input's size bounds the distinct
// rows, it does not predict them), and serves the distinct rows as
// columns. An input that serves its rest as columns (a sweep's output) is
// deduplicated over them in place, and when every row is distinct and the
// projection keeps every column they are served without a copy; any other
// input's rows are appended, a batch at a time, into the set's own
// columns, which keep only the new ones.
func (p *Project) Open() (BatchIterator, error) {
	in, err := p.Src.Open()
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var set *frel.ColumnSet
	if cols, _, ok := columnsOf(in); ok {
		set = frel.NewColumnSet(cols, p.idx, min(cols.Len(), dedupPresizeMax))
		for i := range cols.Len() {
			set.Add(i)
		}
	} else {
		n := min(max(batchesRemaining(in), 0), dedupPresizeMax)
		set = frel.NewColumnSet(frel.NewColumns(p.schema, n), nil, n)
		for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
			for _, t := range b {
				set.AddTuple(t, p.idx)
			}
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	return &colsBatchIterator{cols: set.Distinct(), sortedOn: -1}, nil
}

// dedupPresizeMax caps the rows a projection reserves up front, about
// 1.5 MB of set: a low-cardinality projection of a large input grows its
// set by doubling from there instead of reserving a row per input tuple.
const dedupPresizeMax = 1 << 15
