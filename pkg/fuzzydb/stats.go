package fuzzydb

import (
	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
)

// PlanStats is one node of the per-operator statistics tree an EXPLAIN
// ANALYZE run produces: the operator name, its runtime counters (rows
// out, comparisons, degree evaluations, Rng(r) scan lengths, sort and
// buffer-pool work, wall time), and its input operators as children. It
// serializes to stable JSON (see DESIGN.md for the schema).
type PlanStats = exec.StatsSnapshot

// QueryStats is the machine-readable summary of an EXPLAIN ANALYZE run:
// the strategy chosen and its note, the planner rewrite rules applied,
// the wall time (Wall), the answer's size and the rows WITH pruned, the
// buffer-pool traffic, and the per-operator tree (Plan). String renders
// it as the shell's EXPLAIN ANALYZE output.
type QueryStats = core.QueryStats

// ExplainAnalyze evaluates one SELECT (through the unnesting rewrites)
// and returns its answer together with the per-operator runtime
// statistics; Result.Stats also carries them.
func (db *DB) ExplainAnalyze(sql string) (*Result, *QueryStats, error) {
	return db.ExplainAnalyzeContext(context.Background(), sql)
}

// ExplainAnalyzeContext is ExplainAnalyze observing ctx.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, sql string) (*Result, *QueryStats, error) {
	q, err := parseQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	s := db.base
	var es *core.ExecStats
	rel, err := s.read(func() (rel *frel.Relation, err error) {
		rel, es, err = s.sess.EvalAnalyze(ctx, q)
		return rel, err
	})
	if err != nil {
		return nil, nil, err
	}
	res := newResult(rel)
	res.stats = es.Summary()
	return res, res.stats, nil
}
