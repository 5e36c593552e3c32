package fuzzydb

import (
	"context"
	"fmt"
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
	Strategy   string     `json:"strategy"`       // unnesting strategy chosen
	Note       string     `json:"note,omitempty"` // strategy detail (theorem applied)
	WallNanos  int64      `json:"wall_ns"`        // total evaluation wall time
	Answer     int        `json:"answer_rows"`    // answer cardinality
	Pruned     int64      `json:"pruned_by_with"` // rows dropped by WITH D >=
	PoolHits   int64      `json:"pool_hits"`      // buffer-pool page hits
	PoolMisses int64      `json:"pool_misses"`    // buffer-pool misses (physical reads)
	Plan       *PlanStats `json:"plan"`           // per-operator tree
}

// Wall returns the total evaluation wall time.
func (s *QueryStats) Wall() time.Duration { return time.Duration(s.WallNanos) }

// String renders the stats as the shell's EXPLAIN ANALYZE output.
func (s *QueryStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s (%s)\n", s.Strategy, s.Note)
	fmt.Fprintf(&b, "wall: %s  answer: %d tuples  pruned by WITH: %d  pool: %d hits / %d misses\n",
		s.Wall().Round(time.Microsecond), s.Answer, s.Pruned, s.PoolHits, s.PoolMisses)
	if s.Plan != nil {
		b.WriteString(s.Plan.Render())
	}
	return b.String()
}

func convertStats(es *core.ExecStats) *QueryStats {
	return &QueryStats{
		Strategy:   es.Strategy.String(),
		Note:       es.Note,
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
