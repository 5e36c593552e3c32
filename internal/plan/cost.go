package plan

import (
	"fmt"
	"math"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// The cost model's constants. Costs are abstract units — one unit is
// roughly one tuple touched — used only to compare alternatives, so only
// their ratios matter.
const (
	// cDeg is the cost of one degree (membership) evaluation relative to
	// touching a tuple; whole-window sweeps and naive nested evaluation
	// pay it per tuple pair.
	cDeg = 4.0

	// cSortAmort scales the n·log2(n) sort term: the engine's cached sort
	// orders (Section 9 reuses sorted relations across operators and
	// queries) amortize most sorts, so a full sort is charged at a
	// quarter of its nominal cost.
	cSortAmort = 0.25

	// fallbackFanout is the per-tuple join fanout assumed when no
	// statistics are available — the paper's constant-fanout assumption
	// (Section 3). With statistics, fanouts come from support widths and
	// distinct counts instead.
	fallbackFanout = 4.0

	// defaultRows is the cardinality assumed for relations without
	// statistics.
	defaultRows = 1000.0

	// minFanout keeps edge fanouts positive so join chains still look
	// connected to the ordering DP.
	minFanout = 0.1

	// fallbackSel is the selectivity assumed for predicates the
	// statistics cannot size (non-equality comparisons, expression
	// shapes outside the model).
	fallbackSel = 1.0 / 3.0
)

func log2n(x float64) float64 { return math.Log2(x + 2) }

// Estimate runs the cost model over the rewritten plan: it sizes every
// node from the catalog's statistics, homes and pushes down the join
// predicates, chooses the join order and the per-step algorithm, and
// computes the naive-evaluation cost for comparison. It never fails:
// planning errors are recorded on the Join node and surfaced when the
// plan is executed, matching the nested evaluator's error timing.
func (p *Plan) Estimate(opts Options) {
	p.NaiveCost = p.naiveCost(p.Query)
	proj := p.Proj()
	switch body := proj.Input.(type) {
	case *Join:
		p.estimateJoin(body, opts)
	case *AntiJoin:
		p.estimateAnti(body)
	case *GroupAgg:
		p.estimateGroupAgg(body)
	case *UncorrSub:
		p.estimateUncorr(body)
	default:
		p.estimateDefault(body)
	}
	in := proj.Input.Est()
	proj.est = Est{Rows: in.Rows, Cost: in.Cost + in.Rows}
	p.Root.est = Est{Rows: proj.est.Rows, Cost: proj.est.Cost + proj.est.Rows}
	p.pushThreshold()
}

// hasOrderIndex reports whether nd is a plain base-relation scan whose
// relation carries a persistent order index on attr. Filtered
// inputs never qualify — a filtered stream's sorted order cannot be read
// off the base relation's index — matching the execution path, which only
// serves unfiltered scans from indexes.
func (p *Plan) hasOrderIndex(nd Node, attr string) bool {
	sc, ok := nd.(*Scan)
	if !ok {
		return false
	}
	oi, ok := p.cat.(OrderIndexes)
	if !ok {
		return false
	}
	return oi.HasOrderIndex(sc.Table, attr)
}

// relRows returns the statistics and cardinality of a base relation
// (defaultRows when statistics are unavailable).
func (p *Plan) relRows(tr fsql.TableRef) (*frel.TableStats, float64) {
	if ts, err := p.cat.RelStats(tr); err == nil && ts != nil {
		return ts, float64(ts.Rows)
	}
	return nil, defaultRows
}

// naiveCost estimates the nested-loop evaluation of the query as written:
// the block's cross product pays one degree evaluation per predicate, and
// each subquery is re-evaluated per outer tuple (the quadratic behavior
// Section 3 analyzes and the rewrites avoid).
func (p *Plan) naiveCost(q *fsql.Select) float64 {
	cross := 1.0
	for _, tr := range q.From {
		_, rows := p.relRows(tr)
		cross *= rows
	}
	cost := cross * cDeg * math.Max(1, float64(len(q.Where)))
	for _, pr := range q.Where {
		if pr.Sub != nil {
			cost += cross * p.naiveCost(pr.Sub)
		}
	}
	return cost
}

// filterSelectivity sizes one pushed-down single-relation predicate: an
// equality against a literal keeps 1/distinct of the rows; every other
// shape falls back to fallbackSel.
func filterSelectivity(pr fsql.Predicate, schema *frel.Schema, ts *frel.TableStats) float64 {
	if ts == nil {
		return fallbackSel
	}
	if pr.Kind == fsql.PredCompare && pr.Op == fuzzy.OpEq {
		ref := ""
		switch {
		case pr.Left.Kind == fsql.OpdRef && pr.Right.Kind != fsql.OpdRef:
			ref = pr.Left.Ref
		case pr.Right.Kind == fsql.OpdRef && pr.Left.Kind != fsql.OpdRef:
			ref = pr.Right.Ref
		}
		if ref != "" {
			if i, err := schema.Resolve(ref); err == nil {
				if d := ts.Distinct(i); d >= 1 {
					return 1 / d
				}
			}
		}
	}
	return fallbackSel
}

// edgeFanout estimates, for an equality/NEAR join edge, how many tuples
// of the larger side an average tuple of the smaller side joins. Two
// fuzzy supports match when they overlap (possibly within the NEAR
// tolerance), so the width-based selectivity is the average combined
// support width over the union span of the two columns; for crisp
// columns that term vanishes and the distinct-count bound 1/max(distinct)
// takes over (the classic equi-join estimate).
func edgeFanout(h HomedPred, schemas []*frel.Schema, stats []*frel.TableStats, rows []float64) float64 {
	a, b := h.Rels[0], h.Rels[1]
	if stats[a] == nil || stats[b] == nil {
		return fallbackFanout
	}
	ai, bi := -1, -1
	for _, opd := range []fsql.Operand{h.Pred.Left, h.Pred.Right} {
		if opd.Kind != fsql.OpdRef {
			continue
		}
		if schemas[a].Has(opd.Ref) {
			ai, _ = schemas[a].Resolve(opd.Ref)
		} else if schemas[b].Has(opd.Ref) {
			bi, _ = schemas[b].Resolve(opd.Ref)
		}
	}
	if ai < 0 || bi < 0 {
		return fallbackFanout
	}
	sa, sb := &stats[a].Attrs[ai], &stats[b].Attrs[bi]
	span := math.Max(sa.MaxHi, sb.MaxHi) - math.Min(sa.MinLo, sb.MinLo)
	tolW := 0.0
	if h.Pred.Kind == fsql.PredNear {
		tolW = h.Pred.Tol.D - h.Pred.Tol.A
	}
	sel := 0.0
	if span > 0 {
		sel = (stats[a].AvgWidth(ai) + stats[b].AvgWidth(bi) + tolW) / span
	}
	if d := math.Max(stats[a].Distinct(ai), stats[b].Distinct(bi)); d >= 1 {
		sel = math.Max(sel, 1/d)
	}
	if sel <= 0 {
		sel = fallbackSel
	}
	if sel > 1 {
		sel = 1
	}
	f := sel * math.Max(rows[a], rows[b])
	if f < minFanout {
		f = minFanout
	}
	return f
}

// estimateJoin plans the flat join: predicates are homed on their
// relations and pushed down, the join order is chosen by dynamic
// programming over the join graph (Section 8 suggests exactly this for
// Q′_K), and each step sweeps the support range of its best numeric
// equality or NEAR predicate, or the whole inner when it has none.
func (p *Plan) estimateJoin(j *Join, opts Options) {
	n := len(j.Inputs)
	if n == 0 {
		j.Err = fmt.Errorf("core: flat query has no relations")
		return
	}
	scans := make([]*Scan, n)
	schemas := make([]*frel.Schema, n)
	stats := make([]*frel.TableStats, n)
	rows := make([]float64, n)
	for i, in := range j.Inputs {
		sc := in.(*Scan)
		scans[i] = sc
		schemas[i] = sc.Schema
		stats[i], rows[i] = p.relRows(sc.Table)
		sc.est = Est{Rows: rows[i], Cost: rows[i]}
	}

	// Partition predicates by the set of relations they reference.
	j.PairPreds, j.Const = nil, nil
	local := make([][]fsql.Predicate, n)
	for _, pr := range j.Preds {
		if pr.Kind != fsql.PredCompare && pr.Kind != fsql.PredNear {
			j.Err = fmt.Errorf("core: flat query contains non-comparison predicate %v", pr)
			return
		}
		var rels []int
		seen := map[int]bool{}
		for _, opd := range []fsql.Operand{pr.Left, pr.Right} {
			if opd.Kind != fsql.OpdRef {
				continue
			}
			home := -1
			for i, s := range schemas {
				if s.Has(opd.Ref) {
					if home >= 0 {
						j.Err = fmt.Errorf("core: ambiguous reference %q (resolves in %s and %s)", opd.Ref, schemas[home].Name, s.Name)
						return
					}
					home = i
				}
			}
			if home < 0 {
				j.Err = fmt.Errorf("core: cannot resolve reference %q", opd.Ref)
				return
			}
			if !seen[home] {
				seen[home] = true
				rels = append(rels, home)
			}
		}
		switch len(rels) {
		case 0:
			j.Const = append(j.Const, pr)
		case 1:
			local[rels[0]] = append(local[rels[0]], pr)
		case 2:
			j.PairPreds = append(j.PairPreds, HomedPred{pr, rels})
		default:
			j.Err = fmt.Errorf("core: predicate %v references more than two relations", pr)
			return
		}
	}

	// Push single-relation predicates down as filters over their scans.
	inRows := make([]float64, n)
	copy(inRows, rows)
	for i := range j.Inputs {
		if len(local[i]) == 0 {
			continue
		}
		sel := 1.0
		for _, pr := range local[i] {
			sel *= filterSelectivity(pr, schemas[i], stats[i])
		}
		inRows[i] = rows[i] * sel
		f := &Filter{Input: scans[i], Preds: local[i], Label: schemas[i].Name}
		f.est = Est{Rows: inRows[i], Cost: rows[i] + rows[i]*cDeg*float64(len(local[i]))}
		j.Inputs[i] = f
	}

	// edges[i][j]: an equality/NEAR predicate links i and j; fanout[i][j]
	// is its estimated per-tuple match count (min over parallel edges).
	// pf[pi] records each predicate's own fanout for the per-step merge
	// choice.
	edges := make([][]bool, n)
	fanout := make([][]float64, n)
	for i := range edges {
		edges[i] = make([]bool, n)
		fanout[i] = make([]float64, n)
	}
	pf := make([]float64, len(j.PairPreds))
	for pi, h := range j.PairPreds {
		pf[pi] = math.Inf(1)
		eqish := h.Pred.Kind == fsql.PredCompare && h.Pred.Op == fuzzy.OpEq || h.Pred.Kind == fsql.PredNear
		if !eqish {
			continue
		}
		a, b := h.Rels[0], h.Rels[1]
		f := edgeFanout(h, schemas, stats, inRows)
		pf[pi] = f
		if !edges[a][b] || f < fanout[a][b] {
			fanout[a][b], fanout[b][a] = f, f
		}
		edges[a][b], edges[b][a] = true, true
	}

	order := joinOrder(n, inRows, edges, fanout, opts)
	if order == nil {
		j.Err = fmt.Errorf("core: join order reconstruction failed")
		return
	}
	j.Order = order

	// Walk the left-deep join in the chosen order, assigning predicates
	// to steps and choosing each step's algorithm by cost.
	cost := 0.0
	for _, in := range j.Inputs {
		cost += in.Est().Cost
	}
	curSchema := schemas[order[0]]
	curRows := inRows[order[0]]
	// curLeaf is the accumulated left side while it is still a single plan
	// leaf (before the first join step) — the only state in which an order
	// index can serve it directly.
	curLeaf := j.Inputs[order[0]]
	joined := map[int]bool{order[0]: true}
	used := make([]bool, len(j.PairPreds))
	j.Steps = nil
	for _, next := range order[1:] {
		nextSchema := schemas[next]
		// Predicates now evaluable: both endpoints in joined ∪ {next},
		// with at least one endpoint being next.
		var applicable []int
		for pi, h := range j.PairPreds {
			if used[pi] {
				continue
			}
			ok := true
			touchesNext := false
			for _, r := range h.Rels {
				if r == next {
					touchesNext = true
				} else if !joined[r] {
					ok = false
				}
			}
			if ok && touchesNext {
				applicable = append(applicable, pi)
			}
		}

		// Range candidate: the lowest-fanout numeric equality predicate
		// orientable between the accumulated side and next (NEAR runs as a
		// band merge-join and is considered after equalities, like the
		// executor's historical preference).
		step := JoinStep{Next: next, MergePred: -1}
		best := math.Inf(1)
		for pass := 0; pass < 2; pass++ {
			for _, pi := range applicable {
				pr := j.PairPreds[pi].Pred
				isEq := pr.Kind == fsql.PredCompare && pr.Op == fuzzy.OpEq
				isNear := pr.Kind == fsql.PredNear
				if pass == 0 && !isEq || pass == 1 && !isNear {
					continue
				}
				if pr.Left.Kind != fsql.OpdRef || pr.Right.Kind != fsql.OpdRef {
					continue
				}
				var cRef, nRef string
				tol := pr.Tol
				switch {
				case curSchema.Has(pr.Left.Ref) && nextSchema.Has(pr.Right.Ref):
					cRef, nRef = pr.Left.Ref, pr.Right.Ref
				case nextSchema.Has(pr.Left.Ref) && curSchema.Has(pr.Right.Ref):
					cRef, nRef = pr.Right.Ref, pr.Left.Ref
					// d(a ≈ b) under tol equals d(b ≈ a) under the negated
					// tolerance (differences flip sign).
					tol = fuzzy.Neg(tol)
				default:
					continue
				}
				ci, _ := curSchema.Resolve(cRef)
				ni, _ := nextSchema.Resolve(nRef)
				if curSchema.Attrs[ci].Kind != frel.KindNumber || nextSchema.Attrs[ni].Kind != frel.KindNumber {
					continue
				}
				if pf[pi] < best {
					best = pf[pi]
					step.MergePred = pi
					step.LeftAttr, step.RightAttr, step.Tol = cRef, nRef, tol
				}
			}
		}

		// Output estimate, as in the ordering DP's size formula.
		connected := false
		stepFanout := math.Inf(1)
		for k := range joined {
			if edges[k][next] {
				connected = true
				if fanout[k][next] < stepFanout {
					stepFanout = fanout[k][next]
				}
			}
		}
		var outRows float64
		if connected {
			outRows = stepFanout * math.Min(curRows, inRows[next])
			step.Fanout = stepFanout
		} else {
			outRows = curRows * inRows[next]
		}

		// A range window pays amortized sorts plus a linear sweep (an
		// input served from a persistent order index pays no sort at
		// all); the whole window pays a degree evaluation per tuple pair.
		if step.MergePred >= 0 {
			lSort := cSortAmort * curRows * log2n(curRows)
			if curLeaf != nil && p.hasOrderIndex(curLeaf, step.LeftAttr) {
				step.LeftIndexed = true
				lSort = 0
			}
			rSort := cSortAmort * inRows[next] * log2n(inRows[next])
			if p.hasOrderIndex(j.Inputs[next], step.RightAttr) {
				step.RightIndexed = true
				rSort = 0
			}
			used[step.MergePred] = true
			cost += lSort + rSort + curRows + inRows[next] + outRows
		} else {
			cost += curRows*inRows[next]*cDeg + outRows
		}
		for _, pi := range applicable {
			if pi == step.MergePred {
				continue
			}
			step.Extras = append(step.Extras, pi)
			used[pi] = true
		}

		curSchema = curSchema.Join(nextSchema)
		curRows = outRows
		curLeaf = nil
		joined[next] = true
		j.Steps = append(j.Steps, step)
	}
	if len(j.Const) > 0 {
		cost += curRows * cDeg * float64(len(j.Const))
	}
	j.est = Est{Rows: curRows, Cost: cost}
	j.assignEmits(schemas, p.Proj())
}

// joinOrder chooses a left-deep join order by dynamic programming over
// relation subsets, minimizing the sum of estimated intermediate sizes
// (Section 8's suggestion for chain queries Q′_K). Absent any edge the
// join is a cross product. A nil result means reconstruction failed.
func joinOrder(n int, sizes []float64, edges [][]bool, fanout [][]float64, opts Options) []int {
	if n == 1 {
		return []int{0}
	}
	if n > 12 || opts.DisableJoinReorder {
		// Too many relations for subset DP (or reordering disabled): keep
		// the syntactic order.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}

	// est[mask] is the estimated size of joining the subset.
	full := 1 << n
	est := make([]float64, full)
	for mask := 1; mask < full; mask++ {
		if mask&(mask-1) == 0 {
			for i := 0; i < n; i++ {
				if mask == 1<<i {
					est[mask] = sizes[i]
				}
			}
			continue
		}
		est[mask] = math.Inf(1)
	}
	cost := make([]float64, full)
	last := make([]int, full)
	for mask := range cost {
		cost[mask] = math.Inf(1)
		last[mask] = -1
	}
	for i := 0; i < n; i++ {
		cost[1<<i] = 0
	}
	for mask := 1; mask < full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			rest := mask &^ (1 << j)
			if rest == 0 || math.IsInf(cost[rest], 1) {
				continue
			}
			// Estimate the size of rest ⋈ j.
			connected := false
			for k := 0; k < n; k++ {
				if rest&(1<<k) != 0 && edges[k][j] {
					connected = true
					break
				}
			}
			var sz float64
			if connected {
				f := bestFanout(rest, j, n, edges, fanout)
				sz = f * math.Min(est[rest], sizes[j])
			} else {
				sz = est[rest] * sizes[j]
			}
			c := cost[rest] + sz
			if c < cost[mask] {
				cost[mask] = c
				last[mask] = j
				est[mask] = sz
			}
		}
	}
	order := make([]int, 0, n)
	mask := full - 1
	for mask != 0 {
		j := last[mask]
		if j < 0 {
			// Single relation left.
			for i := 0; i < n; i++ {
				if mask == 1<<i {
					j = i
				}
			}
			if j < 0 {
				return nil
			}
		}
		order = append(order, j)
		mask &^= 1 << j
	}
	// Reverse: we reconstructed from last to first.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// bestFanout returns the smallest estimated fanout among the equality
// edges connecting j to the subset.
func bestFanout(rest, j, n int, edges [][]bool, fanout [][]float64) float64 {
	best := math.Inf(1)
	for k := 0; k < n; k++ {
		if rest&(1<<k) != 0 && edges[k][j] && fanout[k][j] < best {
			best = fanout[k][j]
		}
	}
	if math.IsInf(best, 1) {
		return fallbackFanout
	}
	return best
}

// leafEst sizes a block leaf (Scan or Filter-over-Scan) and returns its
// output cardinality.
func (p *Plan) leafEst(nd Node) float64 {
	switch n := nd.(type) {
	case *Scan:
		_, rows := p.relRows(n.Table)
		n.est = Est{Rows: rows, Cost: rows}
		return rows
	case *Filter:
		sc, ok := n.Input.(*Scan)
		if !ok {
			in := p.estimateDefault(n.Input)
			n.est = Est{Rows: in.Rows * fallbackSel, Cost: in.Cost + in.Rows*cDeg*float64(len(n.Preds))}
			return n.est.Rows
		}
		ts, base := p.relRows(sc.Table)
		sc.est = Est{Rows: base, Cost: base}
		sel := 1.0
		for _, pr := range n.Preds {
			sel *= filterSelectivity(pr, sc.Schema, ts)
		}
		n.est = Est{Rows: base * sel, Cost: base + base*cDeg*float64(len(n.Preds))}
		return n.est.Rows
	}
	return defaultRows
}

// estimateAnti sizes the group-minimum anti-join: with a range attribute
// it is a pair of amortized sorts plus a linear sweep; the whole window
// pays a degree evaluation per tuple pair. The output carries every outer
// tuple (inner matches only lower degrees).
func (p *Plan) estimateAnti(a *AntiJoin) {
	l := p.leafEst(a.Outer)
	r := p.leafEst(a.Inner)
	cost := a.Outer.Est().Cost + a.Inner.Est().Cost
	if a.RangeOuter != "" {
		lSort := cSortAmort * l * log2n(l)
		if p.hasOrderIndex(a.Outer, a.RangeOuter) {
			lSort = 0
		}
		rSort := cSortAmort * r * log2n(r)
		if p.hasOrderIndex(a.Inner, a.RangeInner) {
			rSort = 0
		}
		cost += lSort + rSort + l + r
	} else {
		cost += l * r * cDeg
	}
	a.est = Est{Rows: l, Cost: cost}
}

// estimateGroupAgg sizes the pipelined group-aggregate join: the outer is
// sorted by the grouping attribute, the inner additionally when the
// correlation is an equality (enabling the merge-style pipeline).
func (p *Plan) estimateGroupAgg(g *GroupAgg) {
	l := p.leafEst(g.Outer)
	r := p.leafEst(g.Inner)
	lSort := cSortAmort * l * log2n(l)
	if p.hasOrderIndex(g.Outer, g.URef) {
		lSort = 0
	}
	cost := g.Outer.Est().Cost + g.Inner.Est().Cost + lSort + l + r
	if g.Op2 == fuzzy.OpEq {
		rSort := cSortAmort * r * log2n(r)
		// A NEAR correlation shifts the inner stream before sorting, so the
		// base relation's index order does not apply there.
		if !g.IsNear && p.hasOrderIndex(g.Inner, g.VRef) {
			rSort = 0
		}
		cost += rSort
	}
	g.est = Est{Rows: l, Cost: cost}
}

// estimateUncorr sizes the uncorrelated fold: the subquery is evaluated
// once and its aggregate applied as a constant filter over the outer.
func (p *Plan) estimateUncorr(u *UncorrSub) {
	l := p.leafEst(u.Outer)
	inner := 1.0
	for _, tr := range u.Sub.From {
		_, rows := p.relRows(tr)
		inner *= rows
	}
	u.est = Est{Rows: l, Cost: u.Outer.Est().Cost + inner*cDeg + l*cDeg}
}

// estimateDefault sizes a nested (apply-form) tree, used when the plan
// falls back to the naive strategy: a subquery predicate costs its body
// once per outer tuple.
func (p *Plan) estimateDefault(nd Node) Est {
	switch n := nd.(type) {
	case *Scan, *Filter:
		p.leafEst(nd)
	case *Join:
		rows, cost := 1.0, 0.0
		for _, c := range n.Inputs {
			e := p.estimateDefault(c)
			rows *= e.Rows
			cost += e.Cost
		}
		if len(n.Inputs) == 0 {
			rows = 0
		}
		cost += rows * cDeg * math.Max(1, float64(len(n.Preds)))
		n.est = Est{Rows: rows, Cost: cost}
	case *Apply:
		n.est = applyEst(p, n.Input, n.Body)
	case *AllQuantifier:
		n.est = applyEst(p, n.Input, n.Body)
	case *AntiJoin:
		p.estimateAnti(n)
	case *GroupAgg:
		p.estimateGroupAgg(n)
	case *UncorrSub:
		p.estimateUncorr(n)
	}
	return *nd.Est()
}

func applyEst(p *Plan, input, body Node) Est {
	in := p.estimateDefault(input)
	var b Est
	if body != nil {
		b = p.estimateDefault(body)
	}
	return Est{Rows: in.Rows, Cost: in.Cost + in.Rows*math.Max(1, b.Cost)}
}
