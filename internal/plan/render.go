package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fsql"
)

// Lines renders the plan for EXPLAIN: the rewrite rules applied, the
// cost summary, and the logical operator tree with per-node estimates.
// The output is deterministic, so golden tests can diff it.
func (p *Plan) Lines() []string {
	rules := "(none)"
	if len(p.Rules) > 0 {
		rules = strings.Join(p.Rules, ", ")
	}
	lines := []string{
		"rules: " + rules,
		fmt.Sprintf("cost: %s rows, %s units (naive: %s units)",
			g3(p.Root.est.Rows), g3(p.Root.est.Cost), g3(p.NaiveCost)),
	}
	var walk func(nd Node, depth int)
	walk = func(nd Node, depth int) {
		pad := strings.Repeat("  ", depth)
		lines = append(lines, pad+describe(nd))
		if j, ok := nd.(*Join); ok && len(j.Order) > 0 {
			// Render join inputs in execution order, each step prefixed by
			// its algorithm decision.
			walk(j.Inputs[j.Order[0]], depth+1)
			for k, step := range j.Steps {
				algo := "merge-join all"
				if step.MergePred >= 0 {
					algo = "merge-join " + step.LeftAttr + " = " + step.RightAttr
					switch {
					case step.LeftIndexed && step.RightIndexed:
						algo += " index(both)"
					case step.LeftIndexed:
						algo += " index(left)"
					case step.RightIndexed:
						algo += " index(right)"
					}
				}
				if step.Fanout > 0 {
					algo += " (fanout " + g3(step.Fanout) + ")"
				}
				if len(step.Extras) > 0 {
					algo += fmt.Sprintf(" +%d extra", len(step.Extras))
				}
				if step.Emit != nil {
					algo += " -> " + strings.Join(step.Emit, ", ")
				}
				if step.Fold != FoldNone {
					algo += " fold(" + step.Fold.String() + ")"
				}
				algo += FloorLabel(step.Floor)
				lines = append(lines, pad+"  ["+algo+"]")
				walk(j.Inputs[j.Order[k+1]], depth+1)
			}
			return
		}
		for _, c := range nd.Children() {
			if c != nil {
				walk(c, depth+1)
			}
		}
	}
	walk(p.Root, 0)
	return lines
}

// g3 formats an estimate with three significant digits.
func g3(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }

// describe renders one node: kind, detail, and estimates.
func describe(nd Node) string {
	detail := ""
	switch n := nd.(type) {
	case *Scan:
		detail = n.Table.Binding()
	case *Filter:
		detail = fmt.Sprintf("%s (%d preds)", n.Label, len(n.Preds))
	case *Join:
		if n.Err != nil {
			detail = "error: " + n.Err.Error()
		}
	case *Apply:
		detail = predKindWord(n.Pred)
	case *AllQuantifier:
		detail = "all"
	case *AntiJoin:
		alg := "merge all"
		if n.RangeOuter != "" {
			alg = "merge " + n.RangeOuter + " = " + n.RangeInner
		}
		detail = fmt.Sprintf("[%s] %s%s", n.Mode, alg, FloorLabel(n.Floor))
	case *GroupAgg:
		detail = fmt.Sprintf("%v(%s) by %s%s", n.Agg, n.ZRef, n.URef, FloorLabel(n.Floor))
	case *UncorrSub:
		detail = fmt.Sprintf("%v folded vs %s", n.Agg, n.YRef)
	case *Project:
		if len(n.GroupBy) > 0 {
			detail = "group by " + strings.Join(n.GroupBy, ", ")
		}
	case *Threshold:
		var parts []string
		if c := n.Shape.With; c.Z > 0 || c.Strict {
			parts = append(parts, "with"+strings.ReplaceAll(c.String(), " ", ""))
		}
		if n.Shape.OrderBy != "" {
			dir := "asc"
			if n.Shape.OrderDesc {
				dir = "desc"
			}
			parts = append(parts, "order "+n.Shape.OrderBy+" "+dir)
		}
		if n.Shape.HasLimit {
			parts = append(parts, fmt.Sprintf("limit %d", n.Shape.Limit))
		}
		detail = strings.Join(parts, ", ")
	}
	e := nd.Est()
	s := nd.Kind()
	if detail != "" {
		s += " " + detail
	}
	return fmt.Sprintf("%s  (rows=%s cost=%s)", s, g3(e.Rows), g3(e.Cost))
}

// predKindWord names a subquery predicate kind for rendering.
func predKindWord(p fsql.Predicate) string {
	switch p.Kind {
	case fsql.PredIn:
		return "in"
	case fsql.PredNotIn:
		return "not-in"
	case fsql.PredQuant:
		return "quantifier"
	case fsql.PredScalarSub:
		return "scalar-subquery"
	case fsql.PredExists:
		return "exists"
	case fsql.PredNotExists:
		return "not-exists"
	case fsql.PredNear:
		return "near"
	default:
		return "compare"
	}
}
