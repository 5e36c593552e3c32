package bench

import (
	"repro/internal/core"
)

// AnalyzeReport is the EXPLAIN ANALYZE comparison of both methods on one
// generated workload pair.
type AnalyzeReport struct {
	Query       string                      `json:"query"`
	Outer       int                         `json:"outer_tuples"`
	Inner       int                         `json:"inner_tuples"`
	ScaleDiv    int                         `json:"scalediv"`
	Parallelism int                         `json:"parallelism"`
	Seed        int64                       `json:"seed"`
	Methods     map[string]*core.QueryStats `json:"methods"`
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
		Methods: map[string]*core.QueryStats{
			NestedLoop.String(): stats[0].Summary(),
			MergeJoin.String():  stats[1].Summary(),
		},
	}, nil
}
