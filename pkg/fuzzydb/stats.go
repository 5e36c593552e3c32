package fuzzydb

import (
	"context"
	"strings"
	"time"

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

// QueryStats is the machine-readable summary of an EXPLAIN ANALYZE run.
type QueryStats struct {
	Strategy   string     `json:"strategy"`        // unnesting strategy chosen
	Note       string     `json:"note,omitempty"`  // strategy detail (theorem applied)
	Rules      []string   `json:"rules,omitempty"` // planner rewrite rules applied, in order
	WallNanos  int64      `json:"wall_ns"`         // total evaluation wall time
	Answer     int        `json:"answer_rows"`     // answer cardinality
	Pruned     int64      `json:"pruned_by_with"`  // rows dropped by WITH D >=
	PoolHits   int64      `json:"pool_hits"`       // buffer-pool page hits
	PoolMisses int64      `json:"pool_misses"`     // buffer-pool misses (physical reads)
	Plan       *PlanStats `json:"plan"`            // per-operator tree
}

// Wall returns the total evaluation wall time.
func (s *QueryStats) Wall() time.Duration { return time.Duration(s.WallNanos) }

// String renders the stats as the shell's EXPLAIN ANALYZE output: the
// lines of the PLAN rows Query("EXPLAIN ANALYZE ...") returns.
func (s *QueryStats) String() string {
	return strings.Join(core.StatsLines(s.Strategy, s.Note, s.Rules, s.Wall(), s.Answer, s.Pruned, s.PoolHits, s.PoolMisses, s.Plan), "\n") + "\n"
}

func convertStats(es *core.ExecStats) *QueryStats {
	return &QueryStats{
		Strategy:   es.Strategy.String(),
		Note:       es.Note,
		Rules:      es.Rules,
		WallNanos:  es.Wall.Nanoseconds(),
		Answer:     es.Answer,
		Pruned:     es.Pruned,
		PoolHits:   es.PoolHits,
		PoolMisses: es.PoolMisses,
		Plan:       es.Plan(),
	}
}

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
	res.stats = convertStats(es)
	return res, res.stats, nil
}
