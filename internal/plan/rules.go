package plan

import (
	"fmt"
	"strings"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// The unnesting rewrite rules, by the names EXPLAIN reports. Each rule
// eliminates one subquery predicate node, per the paper's equivalence
// theorems (Sections 4-8).
const (
	RuleUnnestIn         = "unnest-in"         // Theorem 4.1/4.2/8.1: IN → linking equality
	RuleUnnestAny        = "unnest-any"        // op ANY/SOME → linking comparison
	RuleUnnestExists     = "unnest-exists"     // EXISTS → semi-join (correlations only)
	RuleUnnestNotIn      = "unnest-not-in"     // Theorem 5.1: NOT IN → Query JX′ anti-join
	RuleUnnestAll        = "unnest-all"        // Theorem 7.1: op ALL → Query JALL′ anti-join
	RuleUnnestNotExists  = "unnest-not-exists" // NOT EXISTS → anti-join without a link
	RuleUnnestScalarAgg  = "unnest-scalar-agg" // Theorem 6.1: scalar aggregate → Query JA′/COUNT′
	RuleFoldUncorrelated = "fold-uncorrelated" // Section 6: uncorrelated subquery → constant
	RulePushThreshold    = "push-threshold"    // WITH D >= z → operators drop what the threshold drops
)

// Rewrite applies the unnesting rules to the plan and records the
// strategy decision. Rules fire whenever their structural preconditions
// hold (the theorems guarantee equivalence); shapes outside every rule
// fall back to StrategyNaive with the reason in Note, leaving the tree
// in its nested (apply) form. Errors are reserved for malformed queries
// that no evaluator could run.
func (p *Plan) Rewrite() error {
	q := p.Query
	chain, join := splitBody(p.Proj().Input)
	grouping := len(q.GroupBy) > 0 || len(q.Having) > 0 || hasAggItems(q.Items)

	if len(chain) == 0 {
		p.Strategy, p.Note = StrategyFlat, "no nesting"
		return nil
	}
	if len(chain) > 1 {
		// Several subquery predicates flatten together when every one of
		// them is chain-compatible (IN, ANY/SOME, EXISTS): the flattening
		// of Theorem 8.1 applies conjunct by conjunct.
		allChain := true
		for _, nd := range chain {
			ap, ok := nd.(*Apply)
			if !ok { // op ALL
				allChain = false
				break
			}
			switch ap.Pred.Kind {
			case fsql.PredIn, fsql.PredExists, fsql.PredQuant:
			default:
				allChain = false
			}
		}
		if !allChain || grouping {
			p.toNaive("multiple subquery predicates")
			return nil
		}
		if err := p.flattenChain(chain, join); err != nil {
			p.toNaive("cannot flatten: " + err.Error())
			return nil
		}
		p.Strategy, p.Note = StrategyChain, "multi-subquery flattening"
		return nil
	}

	if grouping {
		p.toNaive("outer block uses GROUPBY/aggregates")
		return nil
	}
	switch nd := chain[0].(type) {
	case *AllQuantifier:
		return p.rewriteAnti(join, nd.Pred, nd.Body, AntiAll)
	case *Apply:
		switch nd.Pred.Kind {
		case fsql.PredIn:
			if err := p.flattenChain(chain, join); err != nil {
				p.toNaive("cannot flatten: " + err.Error())
				return nil
			}
			p.Strategy, p.Note = StrategyChain, "Theorem 4.1/4.2/8.1 flattening"
		case fsql.PredQuant:
			// ANY/SOME: flatten like IN but linking with the predicate's op
			// (ALL was built as an AllQuantifier node).
			if err := p.flattenChain(chain, join); err != nil {
				p.toNaive("cannot flatten: " + err.Error())
				return nil
			}
			p.Strategy, p.Note = StrategyChain, "ANY-quantifier flattening"
		case fsql.PredExists:
			if err := p.flattenChain(chain, join); err != nil {
				p.toNaive("cannot flatten: " + err.Error())
				return nil
			}
			p.Strategy, p.Note = StrategyChain, "EXISTS flattening (semi-join)"
		case fsql.PredNotIn:
			return p.rewriteAnti(join, nd.Pred, nd.Body, AntiNotIn)
		case fsql.PredScalarSub:
			return p.rewriteScalarAgg(join, nd.Pred)
		case fsql.PredNotExists:
			return p.rewriteAnti(join, nd.Pred, nd.Body, AntiNotExists)
		default:
			p.toNaive("unknown predicate kind")
		}
	}
	return nil
}

// toNaive records the naive fallback, leaving the tree in its nested
// form (execution re-evaluates the original query directly).
func (p *Plan) toNaive(note string) {
	p.Strategy, p.Note, p.Rules = StrategyNaive, note, nil
}

// splitBody separates a block body into its subquery-predicate chain
// (root first) and the base join.
func splitBody(body Node) ([]Node, *Join) {
	var chain []Node
	for {
		switch n := body.(type) {
		case *Apply:
			chain = append(chain, n)
			body = n.Input
		case *AllQuantifier:
			chain = append(chain, n)
			body = n.Input
		default:
			return chain, body.(*Join)
		}
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

// subqueryIsSimple reports whether a subquery block can take part in a
// rewrite: plain projection of one attribute, conjunctive WHERE, no
// grouping, no threshold of its own, and — when allowNested is false —
// no further nesting.
func subqueryIsSimple(sub *fsql.Select, allowNested bool) error {
	if sub == nil {
		return fmt.Errorf("missing subquery")
	}
	if len(sub.Items) != 1 || sub.Items[0].HasAgg {
		return fmt.Errorf("subquery must select exactly one plain attribute")
	}
	if len(sub.GroupBy) > 0 || len(sub.Having) > 0 {
		return fmt.Errorf("subquery uses GROUPBY/HAVING")
	}
	if sub.HasWith {
		return fmt.Errorf("subquery has its own WITH threshold")
	}
	if sub.OrderBy != "" || sub.HasLimit {
		return fmt.Errorf("subquery uses ORDER BY/LIMIT")
	}
	for _, p := range sub.Where {
		if p.Kind == fsql.PredCompare || p.Kind == fsql.PredNear {
			continue
		}
		if !allowNested {
			return fmt.Errorf("subquery is itself nested")
		}
		if p.Kind != fsql.PredIn && p.Kind != fsql.PredExists {
			return fmt.Errorf("nested subquery is not an IN/EXISTS chain")
		}
		if err := subqueryIsSimple(p.Sub, true); err != nil {
			return err
		}
	}
	return nil
}

// flattenChain merges every chain subquery block into the root join
// (Theorem 8.1; types N and J are the K = 2 case): all block relations
// are concatenated, all comparison predicates kept, and each nesting
// link X in (SELECT Y …) becomes the linking predicate X = Y (or X op Y
// for ANY). Binding names must be distinct across blocks. The merge is
// transactional: on error the tree is left exactly as built.
func (p *Plan) flattenChain(chain []Node, join *Join) error {
	inputs := append([]Node(nil), join.Inputs...)
	preds := append([]fsql.Predicate(nil), join.Preds...)
	var rules []string

	seen := map[string]bool{}
	addBindings := func(j *Join) error {
		for _, in := range j.Inputs {
			tr := in.(*Scan).Table
			b := strings.ToUpper(tr.Binding())
			if seen[b] {
				return fmt.Errorf("binding %q is reused across nesting levels", tr.Binding())
			}
			seen[b] = true
		}
		return nil
	}
	if err := addBindings(join); err != nil {
		return err
	}

	// Process bottom-most first: Build wraps the first WHERE subquery
	// innermost, so the reversed chain — with each merged block's own
	// applies re-surfaced at the front — visits blocks in the depth-first
	// order of the recursive flattening.
	work := make([]Node, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		work = append(work, chain[i])
	}
	for len(work) > 0 {
		nd := work[0]
		work = work[1:]
		ap, ok := nd.(*Apply)
		if !ok {
			return fmt.Errorf("ALL quantifier inside a chain")
		}
		pr := ap.Pred
		var rule string
		switch pr.Kind {
		case fsql.PredIn:
			rule = RuleUnnestIn
		case fsql.PredQuant:
			rule = RuleUnnestAny
		case fsql.PredExists:
			rule = RuleUnnestExists
		default:
			return fmt.Errorf("chain blocks allow only comparisons, IN, and EXISTS")
		}
		if err := subqueryIsSimple(pr.Sub, true); err != nil {
			return err
		}
		subChain, subJoin := splitBody(ap.Body)
		if err := addBindings(subJoin); err != nil {
			return err
		}
		if pr.Kind != fsql.PredExists {
			op := fuzzy.OpEq
			if pr.Kind == fsql.PredQuant {
				op = pr.Op
			}
			preds = append(preds, fsql.Predicate{
				Kind:  fsql.PredCompare,
				Left:  pr.Left,
				Op:    op,
				Right: fsql.RefOperand(pr.Sub.Items[0].Ref),
			})
		}
		// An EXISTS block is a semi-join: the correlation predicates alone
		// carry the connection; max-degree duplicate elimination of the
		// final projection realizes the EXISTS maximum.
		inputs = append(inputs, subJoin.Inputs...)
		preds = append(preds, subJoin.Preds...)
		// The merged block's own subqueries become root applies, processed
		// next (depth-first).
		front := make([]Node, 0, len(subChain))
		for i := len(subChain) - 1; i >= 0; i-- {
			front = append(front, subChain[i])
		}
		work = append(front, work...)
		rules = append(rules, rule)
	}

	join.Inputs, join.Preds = inputs, preds
	p.Proj().Input = join
	p.Rules = append(p.Rules, rules...)
	return nil
}

// splitInnerPreds separates the inner block's WHERE into predicates local
// to the inner relations (p2) and correlation predicates referencing the
// outer schema.
func splitInnerPreds(inner *frel.Schema, preds []fsql.Predicate) (local, corr []fsql.Predicate) {
	for _, p := range preds {
		if resolvableIn(inner, p) {
			local = append(local, p)
		} else {
			corr = append(corr, p)
		}
	}
	return local, corr
}

// resolvableIn reports whether every attribute reference of the predicate
// (a PredCompare or PredNear) resolves in the given schema.
func resolvableIn(schema *frel.Schema, p fsql.Predicate) bool {
	if p.Kind != fsql.PredCompare && p.Kind != fsql.PredNear {
		return false
	}
	for _, opd := range []fsql.Operand{p.Left, p.Right} {
		if opd.Kind == fsql.OpdRef && !schema.Has(opd.Ref) {
			return false
		}
	}
	return true
}

// eqAttrPair extracts, from an equality predicate, the attribute of the
// outer schema and the attribute of the inner schema it links, both
// numeric; ok reports success.
func eqAttrPair(outer, inner *frel.Schema, p fsql.Predicate) (outerRef, innerRef string, ok bool) {
	if p.Kind != fsql.PredCompare || p.Op != fuzzy.OpEq ||
		p.Left.Kind != fsql.OpdRef || p.Right.Kind != fsql.OpdRef {
		return "", "", false
	}
	var oRef, iRef string
	switch {
	case outer.Has(p.Left.Ref) && inner.Has(p.Right.Ref):
		oRef, iRef = p.Left.Ref, p.Right.Ref
	case inner.Has(p.Left.Ref) && outer.Has(p.Right.Ref):
		oRef, iRef = p.Right.Ref, p.Left.Ref
	default:
		return "", "", false
	}
	oi, _ := outer.Resolve(oRef)
	ii, _ := inner.Resolve(iRef)
	if outer.Attrs[oi].Kind != frel.KindNumber || inner.Attrs[ii].Kind != frel.KindNumber {
		return "", "", false
	}
	return oRef, iRef, true
}

// checkJoinRefs verifies that every attribute reference of the predicate
// resolves in one of the two block schemas, mirroring what compiling the
// predicate against the pair will require.
func checkJoinRefs(outer, inner *frel.Schema, p fsql.Predicate) error {
	for _, opd := range []fsql.Operand{p.Left, p.Right} {
		if opd.Kind == fsql.OpdRef && !outer.Has(opd.Ref) && !inner.Has(opd.Ref) {
			return fmt.Errorf("core: cannot resolve attribute reference %q", opd.Ref)
		}
	}
	return nil
}

// makeLeaf wraps a block's scan in a filter holding its local predicates
// (the pre-filtered single-relation source of the rewritten queries).
func makeLeaf(scan *Scan, preds []fsql.Predicate) Node {
	if len(preds) == 0 {
		return scan
	}
	return &Filter{Input: scan, Preds: preds, Label: scan.Table.Binding()}
}

// rewriteAnti handles type JX (NOT IN), type JALL (op ALL) and NOT
// EXISTS queries, rewriting them to the group-minimum anti-join of
// Queries JX′ and JALL′ (NOT EXISTS is the degenerate case without a
// linking predicate).
func (p *Plan) rewriteAnti(join *Join, sub fsql.Predicate, body Node, mode AntiMode) error {
	q := p.Query
	if sub.Sub == nil {
		p.toNaive("missing subquery")
		return nil
	}
	if len(q.From) != 1 || len(sub.Sub.From) != 1 {
		p.toNaive("anti-join rewrite needs single-relation blocks")
		return nil
	}
	if err := subqueryIsSimple(sub.Sub, false); err != nil {
		p.toNaive(err.Error())
		return nil
	}
	outerScan := join.Inputs[0].(*Scan)
	_, innerJoin := splitBody(body)
	innerScan := innerJoin.Inputs[0].(*Scan)
	outerSchema, innerSchema := outerScan.Schema, innerScan.Schema

	p2, corr := splitInnerPreds(innerSchema, sub.Sub.Where)

	// The linking predicate: outer.Y (=|op) inner.Z. NOT EXISTS has none.
	var link fsql.Predicate
	hasLink := mode != AntiNotExists
	if hasLink {
		linkOp := fuzzy.OpEq
		if mode == AntiAll {
			linkOp = sub.Op
		}
		link = fsql.Predicate{Kind: fsql.PredCompare, Left: sub.Left, Op: linkOp,
			Right: fsql.RefOperand(sub.Sub.Items[0].Ref)}
	}

	// Choose the merge range attribute among numeric equality predicates.
	// For JX the linking equality itself qualifies; for JALL and NOT
	// EXISTS only an equality correlation does.
	var rangeOuter, rangeInner string
	candidates := corr
	if mode == AntiNotIn {
		candidates = append([]fsql.Predicate{link}, corr...)
	}
	for _, pr := range candidates {
		if oRef, iRef, ok := eqAttrPair(outerSchema, innerSchema, pr); ok {
			rangeOuter, rangeInner = oRef, iRef
			break
		}
	}

	// The penalty terms of Queries JX′/JALL′ compile against the pair of
	// block schemas; references outside both make the rewrite unusable.
	for _, pr := range corr {
		if err := checkJoinRefs(outerSchema, innerSchema, pr); err != nil {
			p.toNaive(err.Error())
			return nil
		}
	}
	if hasLink {
		if err := checkJoinRefs(outerSchema, innerSchema, link); err != nil {
			p.toNaive(err.Error())
			return nil
		}
	}

	rule := RuleUnnestNotIn
	strategy := StrategyAntiJoin
	note := "Query JX' (Theorem 5.1)"
	switch mode {
	case AntiAll:
		rule, strategy, note = RuleUnnestAll, StrategyAllAnti, "Query JALL' (Theorem 7.1)"
	case AntiNotExists:
		rule, note = RuleUnnestNotExists, "NOT EXISTS anti-join"
	}

	p.Proj().Input = &AntiJoin{
		Outer: makeLeaf(outerScan, join.Preds), Inner: makeLeaf(innerScan, p2),
		Mode: mode, Link: link, HasLink: hasLink, Corr: corr,
		RangeOuter: rangeOuter, RangeInner: rangeInner,
	}
	p.Rules = append(p.Rules, rule)
	p.Strategy, p.Note = strategy, note
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

// rewriteScalarAgg handles type JA queries (scalar aggregate subqueries,
// Section 6), rewriting to the pipelined group-aggregate join of Queries
// JA′ and COUNT′, or folding an uncorrelated subquery into a constant.
func (p *Plan) rewriteScalarAgg(join *Join, sub fsql.Predicate) error {
	q := p.Query
	if err := checkScalarSubquery(sub.Sub); err != nil {
		return err
	}
	if len(q.From) != 1 || len(sub.Sub.From) != 1 {
		p.toNaive("group-aggregate rewrite needs single-relation blocks")
		return nil
	}
	if len(sub.Sub.GroupBy) > 0 || len(sub.Sub.Having) > 0 || sub.Sub.HasWith ||
		sub.Sub.OrderBy != "" || sub.Sub.HasLimit {
		p.toNaive("aggregate subquery uses GROUPBY/HAVING/WITH/ORDER/LIMIT")
		return nil
	}
	for _, pr := range sub.Sub.Where {
		if pr.Kind != fsql.PredCompare && pr.Kind != fsql.PredNear {
			p.toNaive("aggregate subquery is itself nested")
			return nil
		}
	}
	outerScan := join.Inputs[0].(*Scan)
	outerSchema := outerScan.Schema
	innerSchema, err := p.cat.BoundSchema(sub.Sub.From[0])
	if err != nil {
		return err
	}
	p2, corr := splitInnerPreds(innerSchema, sub.Sub.Where)

	agg := sub.Sub.Items[0].Agg
	zRef := sub.Sub.Items[0].Ref
	if sub.Left.Kind != fsql.OpdRef || !outerSchema.Has(sub.Left.Ref) {
		p.toNaive("compared value is not an outer attribute")
		return nil
	}
	yRef := sub.Left.Ref

	if len(corr) == 0 {
		// No correlation: the inner block produces the same single value
		// for every outer tuple (Section 6 notes no unnesting is needed).
		stripped := *sub.Sub
		stripped.Items = []fsql.SelectItem{{Ref: zRef}}
		p.Proj().Input = &UncorrSub{
			Outer: makeLeaf(outerScan, join.Preds),
			Sub:   &stripped, Agg: agg, YRef: yRef, CmpOp: sub.Op,
		}
		p.Rules = append(p.Rules, RuleFoldUncorrelated)
		p.Strategy, p.Note = StrategyUncorrelated, "uncorrelated aggregate subquery"
		return nil
	}

	if len(corr) != 1 {
		p.toNaive("group-aggregate rewrite needs exactly one correlation predicate")
		return nil
	}
	// Normalize the correlation to S.V op2 R.U.
	cp := corr[0]
	if cp.Left.Kind != fsql.OpdRef || cp.Right.Kind != fsql.OpdRef {
		p.toNaive("correlation predicate must compare two attributes")
		return nil
	}
	var vRef, uRef string
	op2 := cp.Op
	// A NEAR correlation folds into exact equality by the sup-min
	// convolution identity: d(V ≈ U | tol) = d((V ⊕ tol') = U), so the
	// inner attribute is shifted by the tolerance and the pipeline
	// proceeds as an equi-correlation.
	var nearShift fuzzy.Trapezoid
	isNear := cp.Kind == fsql.PredNear
	switch {
	case innerSchema.Has(cp.Left.Ref) && outerSchema.Has(cp.Right.Ref):
		vRef, uRef = cp.Left.Ref, cp.Right.Ref
		if isNear {
			op2 = fuzzy.OpEq
			nearShift = fuzzy.Neg(cp.Tol)
		}
	case outerSchema.Has(cp.Left.Ref) && innerSchema.Has(cp.Right.Ref):
		vRef, uRef = cp.Right.Ref, cp.Left.Ref
		if isNear {
			op2 = fuzzy.OpEq
			nearShift = cp.Tol
		} else {
			op2 = op2.Flip()
		}
	default:
		p.toNaive("correlation predicate does not link inner and outer")
		return nil
	}
	vi, err := innerSchema.Resolve(vRef)
	if err != nil {
		return err
	}
	ui, err := outerSchema.Resolve(uRef)
	if err != nil {
		return err
	}
	if innerSchema.Attrs[vi].Kind != frel.KindNumber || outerSchema.Attrs[ui].Kind != frel.KindNumber {
		p.toNaive("correlation attributes must be numeric")
		return nil
	}
	if isNear {
		// The tolerance folds into the correlation attribute by shifting
		// it; when that attribute is also the aggregated one, the shift
		// would corrupt the aggregate inputs.
		zi, err := innerSchema.Resolve(zRef)
		if err != nil {
			return err
		}
		if zi == vi {
			p.toNaive("NEAR correlation on the aggregated attribute")
			return nil
		}
	}

	note := "Query JA' (Theorem 6.1)"
	if agg == fuzzy.AggCount {
		note = "Query COUNT' (Theorem 6.1)"
	}
	p.Proj().Input = &GroupAgg{
		Outer: makeLeaf(outerScan, join.Preds),
		Inner: makeLeaf(&Scan{Table: sub.Sub.From[0], Schema: innerSchema}, p2),
		URef:  uRef, VRef: vRef, Op2: op2, ZRef: zRef, Agg: agg,
		YRef: yRef, CmpOp: sub.Op, NearShift: nearShift, IsNear: isNear,
	}
	p.Rules = append(p.Rules, RuleUnnestScalarAgg)
	p.Strategy, p.Note = StrategyGroupAgg, note
	return nil
}
