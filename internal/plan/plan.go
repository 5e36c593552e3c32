// Package plan is the logical planning layer of the query engine: a typed
// plan IR built from the fsql AST, the paper's unnesting theorems
// (Sections 4-8) expressed as independent rewrite rules over that IR, and
// a cost model fed by per-relation statistics (frel.TableStats) that
// chooses join order and join algorithms.
//
// Planning runs in three stages:
//
//	p, err := plan.Build(q, catalog)   // AST → logical plan IR
//	err = p.Rewrite()                  // apply the unnesting rules
//	p.Estimate(opts)                   // statistics, join order, costs
//
// The physical compilation of a plan into exec operators stays in
// internal/core, which owns sources, linguistic terms and the sort-order
// cache; the plan records every decision compilation needs (join order,
// each step's window, predicate assignments) so the compiler replays them
// without re-deciding.
package plan

import (
	"fmt"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// Catalog resolves the schemas and statistics of base relations; the
// evaluation environment (core.Env) implements it.
type Catalog interface {
	// BoundSchema returns the schema of the referenced relation with the
	// FROM binding (alias) applied as the schema name.
	BoundSchema(tr fsql.TableRef) (*frel.Schema, error)
	// RelStats returns the planner statistics of the referenced relation.
	RelStats(tr fsql.TableRef) (*frel.TableStats, error)
}

// OrderIndexes is optionally implemented by a Catalog whose storage
// keeps persistent sort-order indexes (see internal/catalog). The cost
// model uses it to drop the sort term of a merge-join input that execution
// will serve from an index instead of sorting.
type OrderIndexes interface {
	// HasOrderIndex reports whether the referenced relation carries an
	// order index on the (possibly qualified) attribute.
	HasOrderIndex(tr fsql.TableRef, attr string) bool
}

// Options tunes planning.
type Options struct {
	// DisableJoinReorder keeps the syntactic relation order instead of the
	// dynamic-programming join ordering (ablation switch).
	DisableJoinReorder bool
}

// Strategy identifies how the planner decided to execute a query.
type Strategy int

// Strategies, in the paper's vocabulary.
const (
	// StrategyFlat: the query was already flat; evaluated as a join plan.
	StrategyFlat Strategy = iota
	// StrategyChain: a type N, type J, or K-level chain query (or an
	// ANY-quantified variant), flattened per Theorems 4.1, 4.2 and 8.1 and
	// evaluated as a join plan.
	StrategyChain
	// StrategyAntiJoin: a type JX query (NOT IN), evaluated with the
	// group-minimum merge anti-join of Query JX′ (Theorem 5.1).
	StrategyAntiJoin
	// StrategyGroupAgg: a type JA query (scalar aggregate subquery),
	// evaluated with the pipelined group-aggregate join of Query JA′ /
	// COUNT′ (Theorem 6.1).
	StrategyGroupAgg
	// StrategyAllAnti: a type JALL query (op ALL), evaluated with the
	// group-minimum merge anti-join of Query JALL′ (Theorem 7.1).
	StrategyAllAnti
	// StrategyUncorrelated: the subquery has no correlation; it is
	// evaluated once and folded into a constant set or scalar.
	StrategyUncorrelated
	// StrategyNaive: the query shape is outside the paper's unnesting
	// classes; the naive nested evaluation is used.
	StrategyNaive
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyFlat:
		return "flat"
	case StrategyChain:
		return "chain-join"
	case StrategyAntiJoin:
		return "jx-anti-join"
	case StrategyGroupAgg:
		return "ja-group-aggregate-join"
	case StrategyAllAnti:
		return "jall-anti-join"
	case StrategyUncorrelated:
		return "uncorrelated-subquery"
	case StrategyNaive:
		return "naive-nested-loop"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Est holds a node's cost estimates: output cardinality and cumulative
// work (an abstract unit the cost model defines; see cost.go).
type Est struct {
	Rows float64
	Cost float64
}

// Node is one operator of the logical plan tree.
type Node interface {
	// Kind is a short operator name for rendering.
	Kind() string
	// Children returns the input nodes.
	Children() []Node
	// Est returns the node's (mutable) cost estimates.
	Est() *Est
}

// Shape is the answer-shaping clause bundle of a query block — the WITH
// threshold, ORDER BY, and LIMIT — represented once as part of the
// Threshold node instead of being copied between query structs.
type Shape struct {
	With      frel.Cut
	OrderBy   string
	OrderDesc bool
	Limit     int
	HasLimit  bool
}

// ShapeOf extracts the answer-shaping clauses of a query block.
func ShapeOf(q *fsql.Select) Shape {
	return Shape{With: q.With, OrderBy: q.OrderBy, OrderDesc: q.OrderDesc,
		Limit: q.Limit, HasLimit: q.HasLimit}
}

// Scan reads one base relation under its FROM binding.
type Scan struct {
	est    Est
	Table  fsql.TableRef
	Schema *frel.Schema
}

func (s *Scan) Kind() string     { return "scan" }
func (s *Scan) Children() []Node { return nil }
func (s *Scan) Est() *Est        { return &s.est }

// Filter applies local comparison predicates above its input (always a
// Scan: filters exist in the IR only as pushed-down single-relation
// predicates). Label is the name EXPLAIN ANALYZE reports for the node.
type Filter struct {
	est   Est
	Input Node
	Preds []fsql.Predicate
	Label string
}

func (f *Filter) Kind() string     { return "filter" }
func (f *Filter) Children() []Node { return []Node{f.Input} }
func (f *Filter) Est() *Est        { return &f.est }

// JoinStep is one step of a left-deep join: the input joined at this
// step and the window the merge sweep scans for it.
type JoinStep struct {
	// Next indexes the Join input joined at this step.
	Next int
	// LeftAttr/RightAttr are the merge attributes (LeftAttr resolves in
	// the accumulated left side, RightAttr in the next input), and Tol is
	// the band tolerance (zero for plain equality; NEAR predicates run as
	// band merge-joins, with the tolerance negated when the predicate was
	// written with the sides reversed).
	LeftAttr, RightAttr string
	Tol                 fuzzy.Trapezoid
	// MergePred indexes PairPreds for the predicate the merge consumes:
	// the step sweeps that predicate's support range. -1 means the step
	// has no range and sweeps the whole inner, with every predicate as an
	// extra conjunct.
	MergePred int
	// Extras indexes PairPreds for the predicates applied as extra
	// conjuncts during this step.
	Extras []int
	// Fanout is the estimated per-tuple match count of this step.
	Fanout float64
	// Emit lists the (qualified) attributes of the step's output that a
	// later step or the projection still reads; a merge step run by the
	// kernel join materializes only these. Nil means the full
	// concatenated row (plans whose references the planner could not
	// resolve). Fold, when not FoldNone, records that
	// every emitted attribute comes from one input, so the step emits one
	// row per tuple of that input at the maximum degree over its pairs
	// (see assignEmits).
	Emit []string
	Fold Fold
	// LeftIndexed/RightIndexed record that the cost model expects the
	// corresponding merge input to be served from a persistent order index
	// (its sort term was elided). Informational for EXPLAIN; execution
	// re-checks index freshness itself.
	LeftIndexed, RightIndexed bool
	// Floor is the answer threshold pushed into the step (the zero Cut:
	// none): the step may drop every row the threshold would drop (see
	// pushThreshold).
	Floor frel.Cut
}

// HomedPred is a join predicate with the inputs it references.
type HomedPred struct {
	Pred fsql.Predicate
	Rels []int
}

// Join is a multi-way join of base relations under conjunctive
// comparison predicates — the flat form every unnesting rewrite of the
// paper produces (Query N′, J′, Q′_K). Build creates it with Scan inputs
// and the block's comparison predicates; Estimate homes the predicates,
// pushes single-relation ones down as Filter inputs, and fills Order,
// Steps, PairPreds and Const.
type Join struct {
	est    Est
	Inputs []Node
	Preds  []fsql.Predicate

	// Filled by Estimate:
	PairPreds []HomedPred      // two-relation predicates, step-assigned
	Const     []fsql.Predicate // predicates referencing no relation
	Order     []int            // left-deep join order over Inputs
	Steps     []JoinStep       // one per Order[1:]
	// Err is a homing/planning error (ambiguous or unresolvable
	// reference, hyper-edge predicate); it is surfaced when the plan is
	// executed, matching the nested evaluator's error timing.
	Err error
}

func (j *Join) Kind() string     { return "join" }
func (j *Join) Children() []Node { return j.Inputs }
func (j *Join) Est() *Est        { return &j.est }

// Apply is an unresolved subquery predicate: the per-outer-tuple
// evaluation of Pred's subquery (IN, NOT IN, ANY, EXISTS, NOT EXISTS, or
// a scalar aggregate). Rewrite rules eliminate Apply nodes; any that
// remain force the naive nested evaluation.
type Apply struct {
	est   Est
	Input Node
	Pred  fsql.Predicate
	// Body is the subquery block's own plan body (an apply-chain over a
	// Join), used by the chain rules to merge the block.
	Body Node
}

func (a *Apply) Kind() string     { return "apply" }
func (a *Apply) Children() []Node { return []Node{a.Input, a.Body} }
func (a *Apply) Est() *Est        { return &a.est }

// AllQuantifier is the op ALL subquery predicate (type JALL), kept as a
// distinct node because its rewrite (Theorem 7.1) inverts the linking
// predicate inside a group-minimum anti-join.
type AllQuantifier struct {
	est   Est
	Input Node
	Pred  fsql.Predicate
	Body  Node
}

func (a *AllQuantifier) Kind() string     { return "all-quantifier" }
func (a *AllQuantifier) Children() []Node { return []Node{a.Input, a.Body} }
func (a *AllQuantifier) Est() *Est        { return &a.est }

// AntiMode selects the penalty shape of the group-minimum anti-join.
type AntiMode int

const (
	// AntiNotIn is type JX (NOT IN), Query JX′.
	AntiNotIn AntiMode = iota
	// AntiAll is type JALL (op ALL), Query JALL′.
	AntiAll
	// AntiNotExists is NOT EXISTS: correlations only, no linking
	// predicate.
	AntiNotExists
)

// String names the anti-join mode.
func (m AntiMode) String() string {
	switch m {
	case AntiNotIn:
		return "not-in"
	case AntiAll:
		return "all"
	case AntiNotExists:
		return "not-exists"
	default:
		return fmt.Sprintf("AntiMode(%d)", int(m))
	}
}

// AntiJoin is the group-minimum anti-join of Queries JX′ and JALL′
// (Theorems 5.1 and 7.1; NOT EXISTS is the degenerate case without a
// linking predicate). Outer and Inner are block leaves (Scan or
// Filter-over-Scan).
type AntiJoin struct {
	est          Est
	Outer, Inner Node
	Mode         AntiMode
	// Link is the linking predicate outer.Y (=|op) inner.Z; HasLink is
	// false for NOT EXISTS.
	Link    fsql.Predicate
	HasLink bool
	// Corr are the correlation predicates referencing both blocks.
	Corr []fsql.Predicate
	// RangeOuter/RangeInner are the merge range attributes; empty when
	// no numeric equality links the blocks, and the anti-join sweeps the
	// whole inner.
	RangeOuter, RangeInner string
	// Floor is the answer threshold pushed into the anti-join's output
	// (see pushThreshold); its inner side, which enters as 1 − µS, never
	// gets one.
	Floor frel.Cut
}

func (a *AntiJoin) Kind() string     { return "anti-join" }
func (a *AntiJoin) Children() []Node { return []Node{a.Outer, a.Inner} }
func (a *AntiJoin) Est() *Est        { return &a.est }

// GroupAgg is the pipelined group-aggregate join of Queries JA′ and
// COUNT′ (Theorem 6.1): outer tuples grouped by URef joined against the
// inner aggregated per group.
type GroupAgg struct {
	est          Est
	Outer, Inner Node
	// URef is the outer grouping attribute, VRef the inner correlation
	// attribute, related by `VRef Op2 URef`.
	URef, VRef string
	Op2        fuzzy.Op
	// ZRef is the aggregated inner attribute and Agg the aggregate.
	ZRef string
	Agg  fuzzy.AggFunc
	// YRef CmpOp agg(ZRef) is the outer comparison.
	YRef  string
	CmpOp fuzzy.Op
	// NearShift, when IsNear, folds a NEAR correlation into equality by
	// shifting the inner correlation attribute.
	NearShift fuzzy.Trapezoid
	IsNear    bool
	// Floor is the answer threshold pushed into the outer side (see
	// pushThreshold); the aggregate's member set never gets one.
	Floor frel.Cut
}

func (g *GroupAgg) Kind() string     { return "group-agg-join" }
func (g *GroupAgg) Children() []Node { return []Node{g.Outer, g.Inner} }
func (g *GroupAgg) Est() *Est        { return &g.est }

// UncorrSub folds an uncorrelated aggregate subquery: the subquery is
// evaluated once, aggregated to a constant, and applied as a filter over
// the outer block (Section 6 notes no unnesting is needed).
type UncorrSub struct {
	est   Est
	Outer Node
	// Sub is the stripped subquery (the aggregate removed from its
	// SELECT item), evaluated once.
	Sub *fsql.Select
	Agg fuzzy.AggFunc
	// YRef CmpOp agg(Sub) is the outer comparison.
	YRef  string
	CmpOp fuzzy.Op
}

func (u *UncorrSub) Kind() string     { return "uncorrelated-agg" }
func (u *UncorrSub) Children() []Node { return []Node{u.Outer} }
func (u *UncorrSub) Est() *Est        { return &u.est }

// Project is the block's projection: items with max-degree duplicate
// elimination, or the GROUPBY/aggregate path when grouping is present.
type Project struct {
	est     Est
	Input   Node
	Items   []fsql.SelectItem
	GroupBy []string
	Having  []fsql.Predicate
}

func (p *Project) Kind() string     { return "project" }
func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) Est() *Est        { return &p.est }

// Threshold applies the answer shape: the WITH D >= threshold, ORDER BY,
// and LIMIT.
type Threshold struct {
	est   Est
	Input Node
	Shape Shape
}

func (t *Threshold) Kind() string     { return "threshold" }
func (t *Threshold) Children() []Node { return []Node{t.Input} }
func (t *Threshold) Est() *Est        { return &t.est }

// Plan is a planned query: the IR tree plus the strategy decision, the
// rewrite rules applied, and cost estimates.
type Plan struct {
	Query *fsql.Select
	Root  *Threshold
	// Strategy and Note report the decision in the paper's vocabulary
	// (exactly what EXPLAIN prints).
	Strategy Strategy
	Note     string
	// Rules lists the rewrite rules applied, in order.
	Rules []string
	// NaiveCost is the estimated cost of the naive nested evaluation of
	// the original query, reported alongside the plan cost. The unnesting
	// rewrites are applied whenever their preconditions hold (the paper's
	// equivalence theorems guarantee no loss), so NaiveCost is
	// informational, not a choice input.
	NaiveCost float64

	cat Catalog
}

// Proj returns the plan's projection node.
func (p *Plan) Proj() *Project { return p.Root.Input.(*Project) }
