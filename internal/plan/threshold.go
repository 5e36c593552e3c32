package plan

import (
	"strconv"

	"repro/internal/frel"
)

// pushThreshold is the push-threshold rule: it gives the answer's WITH
// cut to the operators whose output degree reaches the answer only
// through min, the projection's max and the threshold itself, so that
// they may drop early every row the threshold would drop at the end:
//
//	join step (either window)         min of the pair, max over pairs
//	anti-join, output side            min(r.D, 1 − …): r's own degree
//	group-aggregate join, outer side  min(r.D, d(r.Y op A′(u)))
//
// A degree only falls under min and a dropped row is never the maximum
// of a surviving answer row, so an answer degree of at least the floor
// is computed from the same float64 values whether or not the rows below
// it were enumerated: answers stay identical, degrees bit-identical.
// Nothing else gets the floor. A block with aggregate items, GROUP BY or
// HAVING thresholds aggregated groups, and a row below the floor can
// still change an aggregate, so its operators keep every row. So do an
// aggregate's member set (the group-aggregate join's inner side) and
// everything inside a 1 − x (the anti-join's inner side), where a low
// degree raises the result.
func (p *Plan) pushThreshold() {
	cut := p.Root.Shape.With
	proj := p.Proj()
	if cut.Z <= 0 || len(proj.GroupBy) > 0 || len(proj.Having) > 0 || hasAggItems(proj.Items) {
		return
	}
	pushed := false
	switch body := proj.Input.(type) {
	case *Join:
		for k := range body.Steps {
			body.Steps[k].Floor = cut
		}
		pushed = len(body.Steps) > 0
	case *AntiJoin:
		body.Floor, pushed = cut, true
	case *GroupAgg:
		body.Floor, pushed = cut, true
	}
	if pushed {
		p.Rules = append(p.Rules, RulePushThreshold)
	}
}

// FloorLabel is the " floor(z)" suffix EXPLAIN gives an operator the
// threshold was pushed into (" floor(>z)" for a strict cut); it is empty
// for the zero Cut.
func FloorLabel(c frel.Cut) string {
	if c.Z <= 0 {
		return ""
	}
	z := strconv.FormatFloat(c.Z, 'g', -1, 64)
	if c.Strict {
		z = ">" + z
	}
	return " floor(" + z + ")"
}
