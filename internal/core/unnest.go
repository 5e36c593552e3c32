package core

import (
	"context"
	"fmt"

	"repro/internal/frel"
	"repro/internal/plan"
)

// The nesting classification, unnesting rewrites (Sections 4-8) and join
// planning that used to live in this file moved to the three-stage
// planner in internal/plan (Build -> Rewrite -> Estimate); physical
// compilation to exec operators is in compile.go. This file keeps the
// thin public evaluation surface of Env.

// Strategy is the evaluation strategy the planner picks for a query,
// re-exported from internal/plan.
type Strategy = plan.Strategy

// Strategy constants, re-exported for callers of PlanQuery.
const (
	StrategyFlat         = plan.StrategyFlat
	StrategyChain        = plan.StrategyChain
	StrategyAntiJoin     = plan.StrategyAntiJoin
	StrategyGroupAgg     = plan.StrategyGroupAgg
	StrategyAllAnti      = plan.StrategyAllAnti
	StrategyUncorrelated = plan.StrategyUncorrelated
	StrategyNaive        = plan.StrategyNaive
)

// Eval runs a planned query on the engine: the flat form the unnesting
// rewrites (Sections 4-8) produced, through the extended merge join, or
// the naive evaluation for shapes outside the paper's classes. The answer
// is always equivalent to EvalNaive's (Theorems 4.1-8.1). p comes from
// PlanQuery or from a prepared statement, which plans once and runs many
// times: the plan replays its decisions (join order, predicate
// placement), while sources and linguistic terms re-resolve against the
// current catalog and term scope on every run, so a cached plan stays
// correct across inserts (its join order may merely grow stale).
//
// The run observes ctx: its leaf scans and sweeps check for
// cancellation, so a cancelled context aborts long joins and sorts with
// the context's error. With a nil es the operators count their work into
// Env.Work; a non-nil es is filled with the plan's strategy and the run's
// EXPLAIN ANALYZE tree (see ExecStats), whose work joins Env.Work when
// the run ends.
func (e *Env) Eval(ctx context.Context, p *plan.Plan, es *ExecStats) (*frel.Relation, error) {
	if es != nil {
		es.Strategy, es.Note, es.Rules = p.Strategy, p.Note, p.Rules
	}
	return e.evaluate(ctx, es, func() (*frel.Relation, error) { return e.execPlan(p) })
}

// PlanSummary renders the outcome of PlanQuery as EXPLAIN's strategy
// line does: the strategy and its note, or for a query the planner
// refused, the naive evaluation and the reason.
func PlanSummary(p *plan.Plan, err error) string {
	if err != nil {
		return fmt.Sprintf("%s (cannot plan: %s)", StrategyNaive, err)
	}
	return fmt.Sprintf("%s (%s)", p.Strategy, p.Note)
}
