package bench

import (
	"repro/internal/core"
	"repro/internal/exec"
)

// MethodStats is the machine-readable EXPLAIN ANALYZE result of one
// method's run — the JSON shape fuzzybench -json emits (see DESIGN.md).
type MethodStats struct {
	Strategy   string              `json:"strategy"`
	Note       string              `json:"note,omitempty"`
	WallNanos  int64               `json:"wall_ns"`
	Answer     int                 `json:"answer_rows"`
	Pruned     int64               `json:"pruned_by_with"`
	PoolHits   int64               `json:"pool_hits"`
	PoolMisses int64               `json:"pool_misses"`
	Plan       *exec.StatsSnapshot `json:"plan"`
}

func methodStats(es *core.ExecStats) *MethodStats {
	return &MethodStats{
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

// AnalyzeReport is the EXPLAIN ANALYZE comparison of both methods on one
// generated workload pair.
type AnalyzeReport struct {
	Query       string                  `json:"query"`
	Outer       int                     `json:"outer_tuples"`
	Inner       int                     `json:"inner_tuples"`
	ScaleDiv    int                     `json:"scalediv"`
	Parallelism int                     `json:"parallelism"`
	Seed        int64                   `json:"seed"`
	Methods     map[string]*MethodStats `json:"methods"`
}

// AnalyzePair runs both methods on a freshly generated R/S pair with
// per-operator statistics collection and returns the combined report.
func (c Config) AnalyzePair(nOuter, nInner int) (*AnalyzeReport, error) {
	cfg := c.withDefaults()
	_, stats, err := cfg.pair(nOuter, nInner)
	if err != nil {
		return nil, err
	}
	return &AnalyzeReport{
		Query:       TypeJQuery,
		Outer:       nOuter,
		Inner:       nInner,
		ScaleDiv:    cfg.ScaleDiv,
		Parallelism: cfg.Parallelism,
		Seed:        cfg.Seed,
		Methods: map[string]*MethodStats{
			NestedLoop.String(): methodStats(stats[0]),
			MergeJoin.String():  methodStats(stats[1]),
		},
	}, nil
}
