package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
)

// EvalNaive evaluates a (possibly nested) Fuzzy SQL query directly by its
// execution semantics (Sections 2.3 and 4-8 of the paper): the inner block
// of every subquery predicate is re-evaluated — re-scanning its relations —
// once for every tuple of the enclosing block. This is the nested-loop
// baseline of the experiments and the semantic reference the unnesting
// rewrites are tested against. ctx and es act as for Eval; the
// evaluation counts its degree evaluations into one node, which is the
// whole tree of a non-nil es.
func (e *Env) EvalNaive(ctx context.Context, q *fsql.Select, es *ExecStats) (*frel.Relation, error) {
	return relation(e.runNaive(ctx, q, es))
}

// runNaive is EvalNaive returning the answer as its columns.
func (e *Env) runNaive(ctx context.Context, q *fsql.Select, es *ExecStats) (*Answer, error) {
	if es != nil {
		es.Strategy, es.Note = StrategyNaive, "nested-loop evaluation of the nested form"
	}
	return e.evaluate(ctx, es, func() (*Answer, error) { return e.naive(q) })
}

// naive is EvalNaive inside a running evaluation (the engine's fallback
// for shapes outside the paper's classes).
func (e *Env) naive(q *fsql.Select) (*Answer, error) {
	node := e.newNode(StrategyNaive.String(), "")
	if e.analyze == nil {
		return e.evalBlock(q, nil, node)
	}
	e.analyze.Root = node
	start := time.Now()
	a, err := e.evalBlock(q, nil, node)
	if err != nil {
		return nil, err
	}
	node.RowsOut.Add(int64(a.Len()))
	node.WallNanos.Add(time.Since(start).Nanoseconds())
	return a, nil
}

// outerCtx carries the enclosing blocks' (qualified) attributes and the
// current values bound to them, for correlation predicates.
type outerCtx struct {
	schema *frel.Schema
	tuple  frel.Tuple
}

// blockPred evaluates one WHERE conjunct over the block's full evaluation
// tuple (own FROM attributes followed by the enclosing bindings).
type blockPred func(frel.Tuple) (float64, error)

// evalBlock evaluates one query block, counting its degree evaluations
// into node.
func (e *Env) evalBlock(q *fsql.Select, outer *outerCtx, node *exec.OpStats) (*Answer, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("core: query block has no FROM clause")
	}
	if len(q.Items) == 0 {
		return nil, fmt.Errorf("core: query block has no SELECT items")
	}
	srcs := make([]exec.Source, len(q.From))
	for i, tr := range q.From {
		s, err := e.source(tr)
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}
	// The block schema holds the qualified attributes of the FROM
	// relations; the full schema appends the enclosing bindings.
	blockSchema := &frel.Schema{}
	for _, s := range srcs {
		blockSchema = blockSchema.Join(s.Schema())
	}
	fullSchema := blockSchema.Clone()
	if outer != nil {
		fullSchema.Attrs = append(fullSchema.Attrs, outer.schema.Attrs...)
	}

	preds := make([]blockPred, 0, len(q.Where))
	for _, p := range q.Where {
		bp, err := e.compileBlockPred(fullSchema, p, node)
		if err != nil {
			return nil, err
		}
		preds = append(preds, bp)
	}

	// Decide between plain projection and the aggregate/GROUPBY path.
	hasAgg := false
	for _, it := range q.Items {
		if it.HasAgg {
			hasAgg = true
		}
	}
	useGroup := hasAgg || len(q.GroupBy) > 0
	if len(q.Having) > 0 && !useGroup {
		return nil, fmt.Errorf("core: HAVING requires GROUPBY or aggregates")
	}

	var satisfied *frel.Relation // aggregate path: all qualifying block tuples
	var out *frel.Relation       // plain path: projected answer
	var projIdx []int
	if useGroup {
		satisfied = frel.NewRelation(blockSchema)
	} else {
		schema, idx, err := fullSchema.Project(itemRefs(q.Items))
		if err != nil {
			return nil, err
		}
		out = frel.NewRelation(schema)
		projIdx = idx
	}

	err := e.forEachCross(srcs, func(vals []frel.Value, d float64) error {
		full := frel.Tuple{Values: vals, D: d}
		if outer != nil {
			full.Values = append(append([]frel.Value{}, vals...), outer.tuple.Values...)
		}
		for _, p := range preds {
			g, err := p(full)
			if err != nil {
				return err
			}
			if g < full.D {
				full.D = g
			}
			if full.D <= 0 {
				return nil
			}
		}
		if useGroup {
			satisfied.Append(frel.Tuple{Values: append([]frel.Value{}, vals...), D: full.D})
		} else {
			out.Append(full.Project(projIdx))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var ans *Answer
	if useGroup {
		if ans, err = e.groupProject(q.Items, q.GroupBy, q.Having, exec.NewMemSource(satisfied)); err != nil {
			return nil, err
		}
	} else {
		out.DedupMax()
		cols := frel.NewColumns(out.Schema, out.Len())
		for _, t := range out.Tuples {
			cols.AppendTuple(t)
		}
		ans = &Answer{Schema: out.Schema, Cols: cols}
	}
	pruned, err := finalizeAnswer(ans, plan.ShapeOf(q))
	if err != nil {
		return nil, err
	}
	if outer == nil {
		e.notePruned(pruned)
	}
	return ans, nil
}

func itemRefs(items []fsql.SelectItem) []string {
	refs := make([]string, len(items))
	for i, it := range items {
		refs[i] = it.Ref
	}
	return refs
}

// forEachCross enumerates the cross product of the sources, re-opening
// every source after the first once per prefix combination (the naive
// access pattern). The callback receives the concatenated values and the
// fuzzy AND of the participating tuple degrees.
func (e *Env) forEachCross(srcs []exec.Source, fn func(vals []frel.Value, d float64) error) error {
	var rec func(i int, vals []frel.Value, d float64) error
	rec = func(i int, vals []frel.Value, d float64) error {
		if i == len(srcs) {
			return fn(vals, d)
		}
		it, err := srcs[i].Open()
		if err != nil {
			return err
		}
		defer it.Close()
		for {
			b, ok := it.NextBatch()
			if !ok {
				return it.Err()
			}
			for _, t := range b {
				dd := d
				if t.D < dd {
					dd = t.D
				}
				if dd <= 0 {
					continue
				}
				// Full slice expression: each extension owns fresh storage,
				// so sibling iterations cannot clobber one another.
				next := append(vals[:len(vals):len(vals)], t.Values...)
				if err := rec(i+1, next, dd); err != nil {
					return err
				}
			}
		}
	}
	return rec(0, nil, 1)
}

// compileBlockPred compiles one WHERE conjunct, including subquery
// predicates, against the full evaluation schema; its degree evaluations
// are counted into node.
func (e *Env) compileBlockPred(fullSchema *frel.Schema, p fsql.Predicate, node *exec.OpStats) (blockPred, error) {
	switch p.Kind {
	case fsql.PredCompare, fsql.PredNear:
		pred, err := e.compilePred(fullSchema, p)
		if err != nil {
			return nil, err
		}
		return func(t frel.Tuple) (float64, error) {
			node.DegreeEvals.Add(1)
			return pred(t), nil
		}, nil

	case fsql.PredIn, fsql.PredNotIn, fsql.PredQuant:
		if err := checkSetSubquery(p.Sub); err != nil {
			return nil, err
		}
		leftGet, err := e.subqueryLeft(fullSchema, p)
		if err != nil {
			return nil, err
		}
		sub := p.Sub
		kind := p.Kind
		op := p.Op
		quant := p.Quant
		return func(t frel.Tuple) (float64, error) {
			set, err := e.evalSubquerySet(sub, &outerCtx{schema: fullSchema, tuple: t}, node)
			if err != nil {
				return 0, err
			}
			node.DegreeEvals.Add(int64(len(set)))
			v := leftGet(t)
			switch kind {
			case fsql.PredIn:
				return inDegree(v, set), nil
			case fsql.PredNotIn:
				return 1 - inDegree(v, set), nil
			default:
				if quant == fsql.QuantAll {
					return allDegree(op, v, set), nil
				}
				return anyDegree(op, v, set), nil
			}
		}, nil

	case fsql.PredExists, fsql.PredNotExists:
		if err := checkSetSubquery(p.Sub); err != nil {
			return nil, err
		}
		sub := p.Sub
		neg := p.Kind == fsql.PredNotExists
		return func(t frel.Tuple) (float64, error) {
			set, err := e.evalSubquerySet(sub, &outerCtx{schema: fullSchema, tuple: t}, node)
			if err != nil {
				return 0, err
			}
			// d(EXISTS T) is the possibility that T is non-empty: the
			// maximum membership degree of its values.
			d := 0.0
			for _, m := range set {
				if m.mu > d {
					d = m.mu
				}
			}
			if neg {
				return 1 - d, nil
			}
			return d, nil
		}, nil

	case fsql.PredScalarSub:
		if err := checkScalarSubquery(p.Sub); err != nil {
			return nil, err
		}
		leftGet, err := e.subqueryLeft(fullSchema, p)
		if err != nil {
			return nil, err
		}
		agg := p.Sub.Items[0].Agg
		// Evaluate the stripped subquery (without the aggregate) to obtain
		// the fuzzy value set T(r), then aggregate it (Section 6).
		stripped := *p.Sub
		stripped.Items = []fsql.SelectItem{{Ref: p.Sub.Items[0].Ref}}
		op := p.Op
		return func(t frel.Tuple) (float64, error) {
			set, err := e.evalSubquerySet(&stripped, &outerCtx{schema: fullSchema, tuple: t}, node)
			if err != nil {
				return 0, err
			}
			a, ok, err := aggregateSet(agg, set)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, nil // NULL aggregate satisfies nothing
			}
			node.DegreeEvals.Add(1)
			return frel.Degree(op, leftGet(t), frel.Num(a)), nil
		}, nil

	default:
		return nil, fmt.Errorf("core: unsupported predicate %v", p)
	}
}

// subqueryLeft resolves the left operand of a subquery predicate.
func (e *Env) subqueryLeft(fullSchema *frel.Schema, p fsql.Predicate) (getter, error) {
	info, err := resolveOperand(p.Left, fullSchema)
	if err != nil {
		return nil, err
	}
	// A pending string literal on the left of IN/ALL has no opposite
	// attribute; treat it as a crisp string.
	info, err = e.finishOperand(info, frel.KindString, false)
	if err != nil {
		return nil, err
	}
	return info.get, nil
}

func checkSetSubquery(sub *fsql.Select) error {
	if sub == nil {
		return fmt.Errorf("core: missing subquery")
	}
	if len(sub.Items) != 1 || sub.Items[0].HasAgg {
		return fmt.Errorf("core: IN/quantifier subquery must select exactly one plain attribute")
	}
	return nil
}

func checkScalarSubquery(sub *fsql.Select) error {
	if sub == nil {
		return fmt.Errorf("core: missing subquery")
	}
	if len(sub.Items) != 1 || !sub.Items[0].HasAgg {
		return fmt.Errorf("core: scalar subquery must select exactly one aggregate")
	}
	return nil
}

// evalSubquerySet evaluates the subquery with the outer binding (nil for
// an uncorrelated subquery), counting into node, and returns its answer as
// a fuzzy set of values.
func (e *Env) evalSubquerySet(sub *fsql.Select, outer *outerCtx, node *exec.OpStats) ([]setMember, error) {
	a, err := e.evalBlock(sub, outer, node)
	if err != nil {
		return nil, err
	}
	set := make([]setMember, 0, a.Len())
	for i, d := range a.Cols.D {
		if d > 0 {
			set = append(set, setMember{val: a.Cols.Value(i, 0), mu: d})
		}
	}
	return set, nil
}

// groupProject applies the GROUPBY/aggregate path of a block: group the
// source tuples, compute aggregates, apply HAVING, project the items in
// SELECT order, and answer the distinct rows.
func (e *Env) groupProject(items []fsql.SelectItem, groupRefs []string, having []fsql.Predicate, in exec.Source) (*Answer, error) {
	var aggItems []exec.AggItem
	for _, it := range items {
		if it.HasAgg {
			aggItems = append(aggItems, exec.AggItem{Agg: it.Agg, Ref: it.Ref})
		} else {
			found := false
			for _, g := range groupRefs {
				if g == it.Ref {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("core: non-aggregated item %q must appear in GROUPBY", it.Ref)
			}
		}
	}
	ga, err := exec.NewGroupAgg(in, groupRefs, aggItems)
	if err != nil {
		return nil, err
	}
	// HAVING grades each group by a compiled conjunction (empty without
	// HAVING) and drops it at 0. It counts no work: no operator node stands
	// for it.
	prog, err := e.compileKernel(having, ga.Schema())
	if err != nil {
		return nil, err
	}
	// Reorder output columns to SELECT order.
	idx := make([]int, len(items))
	aggPos := 0
	for i, it := range items {
		if it.HasAgg {
			idx[i] = len(groupRefs) + aggPos
			aggPos++
		} else {
			for j, g := range groupRefs {
				if g == it.Ref {
					idx[i] = j
					break
				}
			}
		}
	}
	rel, err := exec.Collect(ga)
	if err != nil {
		return nil, err
	}
	outSchema := &frel.Schema{}
	for _, j := range idx {
		outSchema.Attrs = append(outSchema.Attrs, rel.Schema.Attrs[j])
	}
	// The graded groups, in SELECT order, end in one column set: a SELECT
	// that omits grouping attributes can make two groups one row, at the
	// maximum of their degrees.
	degs := make([]float64, rel.Len())
	prog.RunBatch(rel.Tuples, degs)
	set := frel.NewColumnSet(frel.NewColumns(outSchema, 0), nil, 0)
	for i, t := range rel.Tuples {
		if t.D = degs[i]; t.D > 0 {
			set.AddTuple(t, idx)
		}
	}
	return &Answer{Schema: outSchema, Cols: set.Distinct()}, nil
}
