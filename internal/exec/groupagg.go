package exec

import (
	"context"
	"fmt"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// GroupAggJoin is the pipelined evaluation of the unnested type JA query
// (Query JA′ / Query COUNT′, Section 6): the outer relation, sorted on the
// correlation attribute U, is merged with the inner relation, sorted on V.
// For each distinct outer value u the operator builds the fuzzy value set
//
//	T′(u) = { z : µ(z) = max over s with s.Z = z of min(µ_S(s), d(s.V op2 u)) > 0 },
//
// applies the aggregate to it (the tuple (u, A′(u)) of the paper's T2),
// and emits every outer tuple r with that u at degree
//
//	min(r.D, D(A′(u)), d(r.Y op1 A′(u))),     with D(A′(u)) = 1,
//
// or, when T′(u) is empty: at degree min(r.D, d(r.Y op1 0)) if the
// aggregate is COUNT (the left outer join IF-THEN-ELSE arm of Query
// COUNT′), and not at all otherwise (A′(u) is NULL).
//
// Both inputs are consumed in one flat-column sweep (sweep.go), which
// enters the aggregated column's values into an frel.ValueSet straight
// from the inner columns, in inner order. That order is kept: AVG and SUM
// add in set order, so it fixes the last bits of the result. Identical
// outer values must be adjacent, as they are in the engine's order
// (frel.Compare), by which the outer input is sorted on U. When Op2 is
// equality the sweep
// builds T′(u) from the Rng(u) window, and the inner input must be sorted
// on V; any other correlation operator sweeps the whole-inner window, in
// whatever order the inner arrives.
type GroupAggJoin struct {
	Outer, Inner Source

	OuterUAttr string // R.U, the correlated attribute of the outer block
	InnerVAttr string // S.V, the correlated attribute of the inner block
	Op2        fuzzy.Op

	InnerZAttr string // S.Z, the aggregated attribute
	Agg        fuzzy.AggFunc

	OuterYAttr string // R.Y, compared against the aggregate
	Op1        fuzzy.Op

	// Workers is the worker count of the sweep; below 2 the sweep is
	// serial.
	Workers int

	// Ctx is the statement's context, polled by the running sweep (nil:
	// never cancelled).
	Ctx context.Context

	// Floor is the least output degree the plan still needs (0: every
	// positive degree; see plan's push-threshold rule). An outer tuple
	// whose own degree is below it is dropped untouched, and a group
	// whose every outer tuple is dropped so is never built. The inner
	// side, the aggregate's member set, never sees the floor.
	Floor float64

	// Stats receives the operator's work: one comparison and one degree
	// evaluation per (group, inner tuple) pair examined, one degree
	// evaluation per outer tuple compared with its group's aggregate, and
	// each built group's candidate scan length as its Rng observation.
	Stats *OpStats

	ui, vi, zi, yi int
	outerRows      // the output: the outer tuples with adjusted degrees, or the columns EmitColumns selected
}

// NewGroupAggJoin validates attribute references and kinds and builds the
// operator counting into st.
func NewGroupAggJoin(outer, inner Source, outerU, innerV string, op2 fuzzy.Op, innerZ string, agg fuzzy.AggFunc, outerY string, op1 fuzzy.Op, st *OpStats) (*GroupAggJoin, error) {
	ui, vi, err := checkJoinAttrs(outer, inner, outerU, innerV)
	if err != nil {
		return nil, err
	}
	zi, err := inner.Schema().Resolve(innerZ)
	if err != nil {
		return nil, err
	}
	if agg != fuzzy.AggCount && inner.Schema().Attrs[zi].Kind != frel.KindNumber {
		return nil, fmt.Errorf("exec: aggregate %v requires a numeric attribute, %s is %v", agg, innerZ, inner.Schema().Attrs[zi].Kind)
	}
	yi, err := outer.Schema().Resolve(outerY)
	if err != nil {
		return nil, err
	}
	if outer.Schema().Attrs[yi].Kind != frel.KindNumber {
		return nil, fmt.Errorf("exec: compared attribute %s must be numeric", outerY)
	}
	return &GroupAggJoin{
		Outer: outer, Inner: inner,
		OuterUAttr: outerU, InnerVAttr: innerV, Op2: op2,
		InnerZAttr: innerZ, Agg: agg,
		OuterYAttr: outerY, Op1: op1,
		Stats: st,
		ui:    ui, vi: vi, zi: zi, yi: yi, outerRows: newOuterRows(outer.Schema()),
	}, nil
}

// Open implements Source: the flat-column, morsel-scheduled sweep (see
// sweep.go). Tuples with identical U have identical supports, so no atomic
// cut separates them and a group never spans two morsels (a whole window
// is one morsel anyway). Each morsel reuses one value set across its
// groups and selects its outer tuples at their degrees.
func (j *GroupAggJoin) Open() (BatchIterator, error) {
	ui, vi := j.ui, j.vi
	if j.Op2 != fuzzy.OpEq {
		ui, vi = -1, -1 // the whole-inner window
	}
	in, err := collectFlat("group-aggregate join", j.Outer, j.Inner, ui, vi, fuzzy.Trapezoid{}, j.Workers, j.Stats)
	if err != nil {
		return nil, err
	}
	f := j.Floor
	oD, us, ys := in.outer.D, in.outer.Num[j.ui], in.outer.Num[j.yi]
	iD, vs := in.inner.D, in.inner.Num[j.vi]
	zs, zstrs := in.inner.Num[j.zi], in.inner.Str[j.zi] // zs is nil for a string column
	return in.run(j.Workers, emitColumns(in.outer, j.emit), func(p partRange) (selection, error) {
		loc := newBatchLocals(j.Ctx)
		sel := newSelection(p.oHi - p.oLo)
		win := keyWindow{start: p.iLo, end: p.iLo}
		set := frel.NewValueSet()
		var aggVal fuzzy.Trapezoid
		var aggOK, built bool
		for o := p.oLo; o < p.oHi; o++ {
			u := us[o]
			if o == p.oLo || !frel.SameBits(u, us[o-1]) {
				built = false // a new group
			}
			if oD[o] < f {
				continue
			}
			if !built {
				// The group's first tuple the floor keeps: build T′(u)
				// from Rng(u) and aggregate it.
				built = true
				lo, hi := in.oRng[o].Support()
				win.slide(in.iRng, p.iHi, lo, hi, fuzzy.Trapezoid{})
				set.Reset()
				var rng int64
				for k := win.start; k < win.end; k++ {
					if !(lo <= in.iRng[k].D && in.iRng[k].A <= hi) {
						continue // dangling tuple in the range
					}
					rng++
					loc.deg++
					d := fuzzy.Degree(j.Op2, vs[k], u)
					if iD[k] < d {
						d = iD[k]
					}
					if d > 0 && zs != nil {
						set.AddNum(zs[k])
					} else if d > 0 {
						set.AddStr(zstrs[k])
					}
				}
				loc.observeRng(rng)
				if err := loc.poll(); err != nil {
					return selection{}, err
				}
				aggVal, aggOK = set.Aggregate(j.Agg)
			}
			if !aggOK {
				continue // A′(u) is NULL and the aggregate is not COUNT
			}
			loc.deg++
			d := fuzzy.Degree(j.Op1, ys[o], aggVal)
			if oD[o] < d {
				d = oD[o]
			}
			sel.keep(o, d, f)
		}
		loc.flush(j.Stats)
		return sel, nil
	})
}

// AggItem is one aggregate column of a GroupAgg.
type AggItem struct {
	Agg fuzzy.AggFunc
	Ref string
}

// GroupAgg is a hash group-by with fuzzy aggregates, used for top-level
// GROUPBY/HAVING clauses. Groups are the distinct rows of the grouping
// attributes in a column set (frel.ColumnSet), under value identity.
// Within a group, each distinct value of an aggregated attribute belongs
// to the group's fuzzy value set with the maximum degree of the tuples
// carrying it, and the Section 6 aggregate semantics apply to that set.
// The output tuple is (group values, aggregate results) with degree max
// over the group's tuple degrees (fuzzy OR).
type GroupAgg struct {
	Src       Source
	GroupRefs []string
	Items     []AggItem

	schema   *frel.Schema
	groupIdx []int
	itemIdx  []int
}

// NewGroupAgg builds a group-by; the output schema is the grouping
// attributes followed by one numeric column per aggregate item, named
// "AGG(ref)".
func NewGroupAgg(src Source, groupRefs []string, items []AggItem) (*GroupAgg, error) {
	gschema, gidx, err := src.Schema().Project(groupRefs)
	if err != nil {
		return nil, err
	}
	out := gschema.Clone()
	out.Name = ""
	itemIdx := make([]int, len(items))
	for i, item := range items {
		zi, err := src.Schema().Resolve(item.Ref)
		if err != nil {
			return nil, err
		}
		if item.Agg != fuzzy.AggCount && src.Schema().Attrs[zi].Kind != frel.KindNumber {
			return nil, fmt.Errorf("exec: aggregate %v requires a numeric attribute, %s is %v", item.Agg, item.Ref, src.Schema().Attrs[zi].Kind)
		}
		itemIdx[i] = zi
		out.Attrs = append(out.Attrs, frel.Attribute{
			Name: fmt.Sprintf("%s(%s)", item.Agg, src.Schema().Qualified(zi)),
			Kind: frel.KindNumber,
		})
	}
	return &GroupAgg{Src: src, GroupRefs: groupRefs, Items: items, schema: out, groupIdx: gidx, itemIdx: itemIdx}, nil
}

// Schema implements Source.
func (g *GroupAgg) Schema() *frel.Schema { return g.schema }

// Open implements Source: the groups are built from the whole input, then
// replayed.
func (g *GroupAgg) Open() (BatchIterator, error) {
	it, err := g.Src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	// Groups are the distinct grouping rows, at the maximum degree of
	// their tuples (fuzzy OR), in first-seen order; sets[g] holds one
	// value set per aggregate item of group g, in input order.
	groups := frel.NewColumnSet(frel.NewColumns(&frel.Schema{Attrs: g.schema.Attrs[:len(g.groupIdx)]}, 0), nil, 0)
	var sets [][]*frel.ValueSet
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		for _, t := range b {
			gi, added := groups.AddTuple(t, g.groupIdx)
			if added {
				ms := make([]*frel.ValueSet, len(g.Items))
				for i := range ms {
					ms[i] = frel.NewValueSet()
				}
				sets = append(sets, ms)
			}
			for i, zi := range g.itemIdx {
				sets[gi][i].Add(t.Values[zi])
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}

	rows := groups.Distinct()
	out := make([]frel.Tuple, 0, rows.Len())
group:
	for gi := range rows.Len() {
		vals := rows.AppendValues(make([]frel.Value, 0, len(g.schema.Attrs)), gi)
		for i, item := range g.Items {
			a, ok := sets[gi][i].Aggregate(item.Agg)
			if !ok {
				continue group
			}
			vals = append(vals, frel.Num(a))
		}
		out = append(out, frel.Tuple{Values: vals, D: rows.D[gi]})
	}
	return &memBatchIterator{tuples: out}, nil
}
