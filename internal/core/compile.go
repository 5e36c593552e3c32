package core

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/plan"
)

// This file is the physical compilation stage of the planner: it turns a
// planned query (internal/plan) into the existing exec operators and runs
// it. The plan records every decision — join order, each step's window,
// predicate assignments — so compilation replays them without
// re-deciding; only physical concerns (sources, linguistic terms, the
// sort-order cache, parallelism, cancellation, EXPLAIN ANALYZE
// instrumentation) live here.

// execPlan compiles and runs a planned query.
func (e *Env) execPlan(p *plan.Plan) (*Answer, error) {
	defer e.closeStreams(len(e.streams))
	if p.Strategy == StrategyNaive {
		return e.naive(p.Query)
	}
	switch body := p.Proj().Input.(type) {
	case *plan.Join:
		return e.execJoinPlan(p, body)
	case *plan.AntiJoin:
		return e.execAntiPlan(p, body)
	case *plan.GroupAgg:
		return e.execGroupAggPlan(p, body)
	case *plan.UncorrSub:
		return e.execUncorrPlan(p, body)
	default:
		return e.naive(p.Query)
	}
}

// compileLeaf compiles a plan leaf (Scan or Filter-over-Scan) into a
// stated source.
func (e *Env) compileLeaf(nd plan.Node) (exec.Source, error) {
	switch n := nd.(type) {
	case *plan.Scan:
		s, err := e.source(n.Table)
		if err != nil {
			return nil, err
		}
		return e.stated("scan", n.Table.Binding(), s), nil
	case *plan.Filter:
		sc, ok := n.Input.(*plan.Scan)
		if !ok {
			return nil, fmt.Errorf("core: cannot compile plan filter over %T", n.Input)
		}
		s, err := e.source(sc.Table)
		if err != nil {
			return nil, err
		}
		base := e.stated("scan", sc.Table.Binding(), s)
		// The whole chain runs as one fused kernel loop.
		prog, err := e.compileKernel(n.Preds, base.Schema())
		if err != nil {
			return nil, err
		}
		node := e.newNode("kernel(fused)", n.Label)
		return e.attach(node, exec.NewFusedFilter(base, prog, node), base), nil
	}
	return nil, fmt.Errorf("core: cannot compile plan leaf %T", nd)
}

// execJoinPlan runs a flat join plan (strategies flat and chain-join):
// the leaves are compiled with their pushed-down filters, the recorded
// left-deep steps replayed as merge sweeps over the window the plan
// recorded, and the answer projected with max-degree duplicate
// elimination and thresholded.
func (e *Env) execJoinPlan(p *plan.Plan, j *plan.Join) (*Answer, error) {
	if j.Err != nil {
		return nil, j.Err
	}
	proj := p.Proj()
	filtered := make([]exec.Source, len(j.Inputs))
	for i, in := range j.Inputs {
		src, err := e.compileLeaf(in)
		if err != nil {
			return nil, err
		}
		filtered[i] = src
	}

	cur := filtered[j.Order[0]]
	for _, step := range j.Steps {
		next := filtered[step.Next]
		extraPreds := make([]fsql.Predicate, 0, len(step.Extras))
		for _, pi := range step.Extras {
			extraPreds = append(extraPreds, j.PairPreds[pi].Pred)
		}
		// The step's conjuncts beyond its range predicate: all of them in
		// a whole window.
		pp, err := e.compileKernel(extraPreds, cur.Schema(), next.Schema())
		if err != nil {
			return nil, err
		}
		// A range window sweeps both inputs sorted on the range
		// attributes; the whole window takes them as they come.
		label := "all"
		if step.MergePred >= 0 {
			if cur, err = e.sortSource(cur, step.LeftAttr); err != nil {
				return nil, err
			}
			if next, err = e.sortSource(next, step.RightAttr); err != nil {
				return nil, err
			}
			label = step.LeftAttr + " = " + step.RightAttr
		}
		// The join runs as the morsel-scheduled merge-join (one morsel
		// when serial or over the whole window), emitting only what the
		// plan still reads of its rows and folding the answer's max
		// reduction into the sweep where the plan recorded one.
		if step.Emit != nil && step.Fold != plan.FoldNone {
			label += " fold(" + step.Fold.String() + ")"
		}
		node := e.newNode("merge-join", label+plan.FloorLabel(step.Floor))
		kj, err := exec.NewKernelMergeJoin(cur, next, step.LeftAttr, step.RightAttr, step.Tol, pp, node, e.workers())
		if err != nil {
			return nil, err
		}
		kj.Floor, kj.Ctx = step.Floor.Floor(), e.ctx
		if step.Emit != nil {
			emit := make([]int, len(step.Emit))
			for i, ref := range step.Emit {
				if emit[i], err = kj.Schema().Resolve(ref); err != nil {
					return nil, err
				}
			}
			if err := kj.EmitColumns(emit, kernelFold(step.Fold)); err != nil {
				return nil, err
			}
		}
		cur = e.attach(node, kj, cur, next)
	}

	out := cur
	if len(j.Const) > 0 {
		prog, err := e.compileKernel(j.Const, cur.Schema())
		if err != nil {
			return nil, err
		}
		node := e.newNode("filter", "constant predicates")
		out = e.attach(node, exec.NewFusedFilter(cur, prog, node), cur)
	}

	// Final projection / grouping.
	if hasAggItems(proj.Items) || len(proj.GroupBy) > 0 {
		a, err := e.groupProject(proj.Items, proj.GroupBy, proj.Having, out)
		if err != nil {
			return nil, err
		}
		return e.shapeAnswer(a, p.Root.Shape)
	}
	if len(proj.Having) > 0 {
		return nil, fmt.Errorf("core: HAVING requires GROUPBY or aggregates")
	}
	return e.finishProject(out, proj.Items, p.Root.Shape)
}

// execAntiPlan runs the group-minimum anti-join of Queries JX′ and JALL′:
//
//	JX:   1 − min(µS(s), d(corr…), d(r.Y = s.Z))
//	JALL: 1 − min(µS(s), d(corr…), 1 − d(r.Y op s.Z))
//
// µS(s) and the inner block's local predicates arrive via the
// pre-filtered inner tuple degree.
func (e *Env) execAntiPlan(p *plan.Plan, a *plan.AntiJoin) (*Answer, error) {
	outer, err := e.compileLeaf(a.Outer)
	if err != nil {
		return nil, err
	}
	inner, err := e.compileLeaf(a.Inner)
	if err != nil {
		return nil, err
	}
	// The penalty's conjuncts: the correlations, then the linking
	// predicate, complemented for JALL.
	preds := append([]fsql.Predicate{}, a.Corr...)
	if a.HasLink {
		preds = append(preds, a.Link)
	}
	steps, err := e.kernelSteps(preds, outer.Schema(), inner.Schema())
	if err != nil {
		return nil, err
	}
	if a.HasLink && a.Mode == plan.AntiAll {
		steps[len(steps)-1].Neg = true
	}
	terms, err := kernel.Compile(steps)
	if err != nil {
		return nil, err
	}

	// Without a range attribute (e.g. a string correlation) the anti-join
	// sweeps the whole inner, in the order the inputs come.
	label := "all"
	if a.RangeOuter != "" {
		if outer, err = e.sortSource(outer, a.RangeOuter); err != nil {
			return nil, err
		}
		if inner, err = e.sortSource(inner, a.RangeInner); err != nil {
			return nil, err
		}
		label = a.RangeOuter + " = " + a.RangeInner
	}
	node := e.newNode("merge-anti-join", label+plan.FloorLabel(a.Floor))
	am, err := exec.NewMergeAntiMin(outer, inner, a.RangeOuter, a.RangeInner, terms, node)
	if err != nil {
		return nil, err
	}
	am.Workers, am.Floor, am.Ctx = e.workers(), a.Floor.Floor(), e.ctx
	if emit := outerEmit(outer.Schema(), p.Proj().Items); emit != nil {
		if err := am.EmitColumns(emit); err != nil {
			return nil, err
		}
	}
	return e.finishProject(e.attach(node, am, outer, inner), p.Proj().Items, p.Root.Shape)
}

// execGroupAggPlan runs the pipelined group-aggregate join of Queries JA′
// and COUNT′ (Theorem 6.1).
func (e *Env) execGroupAggPlan(p *plan.Plan, g *plan.GroupAgg) (*Answer, error) {
	outer, err := e.compileLeaf(g.Outer)
	if err != nil {
		return nil, err
	}
	inner, err := e.compileLeaf(g.Inner)
	if err != nil {
		return nil, err
	}
	if g.IsNear {
		inner, err = newShiftSource(inner, g.VRef, g.NearShift)
		if err != nil {
			return nil, err
		}
	}
	sortedOuter, err := e.sortSource(outer, g.URef)
	if err != nil {
		return nil, err
	}
	if g.Op2 == fuzzy.OpEq {
		inner, err = e.sortSource(inner, g.VRef)
		if err != nil {
			return nil, err
		}
	}
	node := e.newNode("group-agg-join", fmt.Sprintf("%v(%s) by %s%s", g.Agg, g.ZRef, g.URef, plan.FloorLabel(g.Floor)))
	ga, err := exec.NewGroupAggJoin(sortedOuter, inner, g.URef, g.VRef, g.Op2, g.ZRef, g.Agg, g.YRef, g.CmpOp, node)
	if err != nil {
		return nil, err
	}
	ga.Workers, ga.Floor, ga.Ctx = e.workers(), g.Floor.Floor(), e.ctx
	if emit := outerEmit(sortedOuter.Schema(), p.Proj().Items); emit != nil {
		if err := ga.EmitColumns(emit); err != nil {
			return nil, err
		}
	}
	return e.finishProject(e.attach(node, ga, sortedOuter, inner), p.Proj().Items, p.Root.Shape)
}

// execUncorrPlan folds an uncorrelated aggregate subquery: the subquery
// is evaluated once, aggregated to a constant, and applied as a filter
// over the outer block (Section 6 notes no unnesting is needed). The
// filter's node counts the subquery's evaluation too.
func (e *Env) execUncorrPlan(p *plan.Plan, u *plan.UncorrSub) (*Answer, error) {
	node := e.newNode("filter", "uncorrelated subquery")
	set, err := e.evalSubquerySet(u.Sub, nil, node)
	if err != nil {
		return nil, err
	}
	a, ok, err := aggregateSet(u.Agg, set)
	if err != nil {
		return nil, err
	}
	outer, err := e.compileLeaf(u.Outer)
	if err != nil {
		return nil, err
	}
	// A NULL aggregate satisfies nothing: its step compares a number with a
	// string, which has degree 0.
	step := kernel.Step{Kind: kernel.StepCompare, Op: u.CmpOp,
		Left: kernel.Constant(frel.Crisp(0)), Right: kernel.Constant(frel.Str(""))}
	if ok {
		yi, err := outer.Schema().Resolve(u.YRef)
		if err != nil {
			return nil, err
		}
		step.Left, step.Right = kernel.Column(yi), kernel.Constant(frel.Num(a))
	}
	prog, err := kernel.Compile([]kernel.Step{step})
	if err != nil {
		return nil, err
	}
	result := e.attach(node, exec.NewFusedFilter(outer, prog, node), outer)
	return e.finishProject(result, p.Proj().Items, p.Root.Shape)
}

// finishProject projects, deduplicates and applies the answer shape
// (threshold, order, limit): the answer is the projection's distinct
// columns.
func (e *Env) finishProject(src exec.Source, items []fsql.SelectItem, shape plan.Shape) (*Answer, error) {
	proj, err := exec.NewProject(src, itemRefs(items))
	if err != nil {
		return nil, err
	}
	cols, err := exec.CollectColumns(e.stated("project", "", proj, src))
	if err != nil {
		return nil, err
	}
	return e.shapeAnswer(&Answer{Schema: proj.Schema(), Cols: cols}, shape)
}

// shapeAnswer applies the answer shape to a and accounts the rows the
// threshold dropped.
func (e *Env) shapeAnswer(a *Answer, shape plan.Shape) (*Answer, error) {
	pruned, err := finalizeAnswer(a, shape)
	if err != nil {
		return nil, err
	}
	e.notePruned(pruned)
	return a, nil
}

// outerEmit returns the columns of the outer schema the answer's items
// read, each once, in the order they are first read: the columns an
// anti-join or group-aggregate join builds its rows of. It returns nil,
// every column, when an item is an aggregate or resolves elsewhere.
func outerEmit(schema *frel.Schema, items []fsql.SelectItem) []int {
	if hasAggItems(items) {
		return nil
	}
	var emit []int
	for _, it := range items {
		c, err := schema.Resolve(it.Ref)
		if err != nil {
			return nil
		}
		if !slices.Contains(emit, c) {
			emit = append(emit, c)
		}
	}
	return emit
}

// kernelFold maps the plan's fold decision to the kernel join's.
func kernelFold(f plan.Fold) exec.Fold {
	switch f {
	case plan.FoldOuter:
		return exec.FoldOuter
	case plan.FoldInner:
		return exec.FoldInner
	default:
		return exec.FoldNone
	}
}

func hasAggItems(items []fsql.SelectItem) bool {
	for _, it := range items {
		if it.HasAgg {
			return true
		}
	}
	return false
}
