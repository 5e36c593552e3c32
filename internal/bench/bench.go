// Package bench is the experiment harness regenerating every table and
// figure of the paper's evaluation (Section 9). Each experiment runs the
// type J query the paper uses —
//
//	SELECT R.K FROM R
//	WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)
//
// — once with the naive nested-loop evaluation of the nested form and once
// with the extended merge-join evaluation of the unnested form, over
// synthetic relations from the workload generator.
//
// Substitution for the 1995 testbed (see DESIGN.md): tuple counts and the
// buffer pool scale down by ScaleDiv (keeping the paper's 2 MB-buffer to
// relation-size ratios), and the reported response time models the era's
// disk as measured-compute-time + physical-page-I/Os × IOLatency. Raw wall
// times and I/O counts are reported alongside.
package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TypeJQuery is the query every experiment measures (Section 9 uses type J
// queries to illustrate the results).
const TypeJQuery = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`

// Config controls an experiment run.
type Config struct {
	// Dir is the scratch directory for heap files; each measurement uses a
	// fresh subdirectory.
	Dir string
	// ScaleDiv divides the paper's tuple counts and buffer size (default
	// 32: the paper's 8 000-tuple relation becomes 250 tuples).
	ScaleDiv int
	// IOLatency is the simulated per-page-I/O latency of the response-time
	// model (default 10 ms, a 1995-era disk).
	IOLatency time.Duration
	// Fanout is the average number of join partners C (default 7, the
	// value of Tables 1 and 2).
	Fanout int
	// TupleBytes is the serialized tuple size (default 128).
	TupleBytes int
	// Width is the half-width of the fuzzy value supports (default 5:
	// imprecise but not very vague).
	Width float64
	// CPUFactor scales measured compute time in the response model,
	// representing how much slower the paper's 1995 SPARC/IPC executed the
	// same work than this machine (default 1: raw measurements; the
	// recorded experiments use 100, see EXPERIMENTS.md).
	CPUFactor float64
	// Parallelism is the worker count for the merge-join method's join
	// sweeps and sort run generation: 0 uses the engine default
	// (all CPUs), 1 forces fully serial execution (the paper's setting).
	Parallelism int
	// Indexes builds persistent order indexes on the join attributes of
	// both relations after loading them, so the merge-join method's cold
	// run is served from the indexes instead of external-sorting (the
	// indexed-vs-sort cold-start ablation).
	Indexes bool
	// Verify cross-checks that both methods return identical answers.
	Verify bool
	// Seed randomizes the workload.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 32
	}
	if c.IOLatency == 0 {
		c.IOLatency = 10 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 7
	}
	if c.TupleBytes <= 0 {
		c.TupleBytes = 128
	}
	if c.Width <= 0 {
		c.Width = 5
	}
	if c.CPUFactor <= 0 {
		c.CPUFactor = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scale converts a paper-scale tuple count to this run's count.
func (c Config) scale(paperTuples int) int {
	n := paperTuples / c.ScaleDiv
	if n < 50 {
		n = 50
	}
	return n
}

// bufferPages returns the scaled buffer pool size: the paper's 2 MB buffer
// (256 pages of 8 KiB), divided by ScaleDiv, with a floor of 4 pages.
func (c Config) bufferPages() int {
	p := 256 / c.ScaleDiv
	if p < 4 {
		p = 4
	}
	return p
}

// Measurement records one method's run.
type Measurement struct {
	Wall        time.Duration // measured compute time
	IOs         int64         // physical page I/Os
	DegreeEvals int64
	SortWall    time.Duration // merge-join only: time spent sorting
	SortIOs     int64
	IOLatency   time.Duration
	CPUFactor   float64
	Answer      int // answer cardinality
}

// Response returns the modeled response time:
// compute time × CPU factor + I/Os × simulated latency.
func (m Measurement) Response() time.Duration {
	return m.CPU() + time.Duration(m.IOs)*m.IOLatency
}

// CPU returns the modeled compute time (measured wall time scaled by the
// CPU factor).
func (m Measurement) CPU() time.Duration {
	f := m.CPUFactor
	if f <= 0 {
		f = 1
	}
	return time.Duration(float64(m.Wall) * f)
}

// CPUFraction returns the share of the response time spent computing.
func (m Measurement) CPUFraction() float64 {
	r := m.Response()
	if r == 0 {
		return 0
	}
	return float64(m.CPU()) / float64(r)
}

// SortFraction returns the share of the response time spent sorting
// (compute + modeled sort I/O), the paper's Table 3 second row.
func (m Measurement) SortFraction() float64 {
	r := m.Response()
	if r == 0 {
		return 0
	}
	f := m.CPUFactor
	if f <= 0 {
		f = 1
	}
	sort := time.Duration(float64(m.SortWall)*f) + time.Duration(m.SortIOs)*m.IOLatency
	return float64(sort) / float64(r)
}

// Method selects an evaluation strategy.
type Method int

// The two methods the paper compares.
const (
	NestedLoop Method = iota // naive evaluation of the nested query
	MergeJoin                // extended merge-join on the unnested query
)

// String names the method.
func (m Method) String() string {
	if m == NestedLoop {
		return "nested-loop"
	}
	return "merge-join"
}

// MeasurePair runs both methods on a freshly generated R (nOuter tuples) /
// S (nInner tuples) pair and returns the two measurements.
func (c Config) MeasurePair(nOuter, nInner int) (nested, merged Measurement, err error) {
	meas, _, err := c.withDefaults().pair(nOuter, nInner)
	return meas[0], meas[1], err
}

// pair measures the nested-loop and then the merge-join method, each on a
// freshly generated R/S pair, and checks that their answers agree when
// the configuration asks for it.
func (c Config) pair(nOuter, nInner int) (meas [2]Measurement, stats [2]*core.ExecStats, err error) {
	var answers [2]*frel.Relation
	for i, m := range []Method{NestedLoop, MergeJoin} {
		if meas[i], stats[i], answers[i], err = c.measure(m, nOuter, nInner); err != nil {
			return meas, stats, err
		}
	}
	if c.Verify && !answers[0].Equal(answers[1], 1e-9) {
		return meas, stats, fmt.Errorf("bench: methods disagree (%d vs %d tuples)", answers[0].Len(), answers[1].Len())
	}
	return meas, stats, nil
}

// MeasureOne runs a single method.
func (c Config) MeasureOne(m Method, nOuter, nInner int) (Measurement, error) {
	meas, _, _, err := c.withDefaults().measure(m, nOuter, nInner)
	return meas, err
}

// setupWorkload builds a fresh environment with generated R/S relations
// and the parsed type J query; cleanup removes the scratch directory.
func (c Config) setupWorkload(nOuter, nInner int) (env *core.Env, mgr *storage.Manager, q *fsql.Select, cleanup func(), err error) {
	dir, err := os.MkdirTemp(c.Dir, "bench-*")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }

	mgr = storage.NewManager(dir, c.bufferPages())
	cat := catalog.New(mgr)
	env = core.NewEnv(cat)
	env.SortMemPages = c.bufferPages()
	env.Parallelism = c.Parallelism

	if _, err := workload.Load(cat, workload.Params{
		Name: "R", Tuples: nOuter, TupleBytes: c.TupleBytes,
		Fanout: c.Fanout, Width: c.Width, Jitter: 0.5, Seed: c.Seed,
	}); err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	if _, err := workload.Load(cat, workload.Params{
		Name: "S", Tuples: nInner, TupleBytes: c.TupleBytes,
		Fanout: c.Fanout, Width: c.Width, Jitter: 0.5, Seed: c.Seed + 1,
	}); err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	if c.Indexes {
		for _, ix := range []struct{ name, rel, attr string }{
			{"r_a", "R", "A"}, {"r_b", "R", "B"},
			{"s_a", "S", "A"}, {"s_b", "S", "B"},
		} {
			if _, err := cat.CreateIndex(ix.name, ix.rel, ix.attr); err != nil {
				cleanup()
				return nil, nil, nil, nil, err
			}
		}
	}

	q, err = fsql.ParseQuery(TypeJQuery)
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	return env, mgr, q, cleanup, nil
}

// measure runs one method on a freshly generated R/S pair with EXPLAIN
// ANALYZE statistics collection, and derives the measurement from the
// statistics tree: the sort share from its sort nodes, the I/O count from
// the storage counters (the tree has no count of page writes outside
// sorts).
func (c Config) measure(method Method, nOuter, nInner int) (Measurement, *core.ExecStats, *frel.Relation, error) {
	env, mgr, q, cleanup, err := c.setupWorkload(nOuter, nInner)
	if err != nil {
		return Measurement{}, nil, nil, err
	}
	defer cleanup()

	mgr.Stats().Reset()
	ctx := context.Background()
	es := &core.ExecStats{}
	var rel *frel.Relation
	if method == NestedLoop {
		rel, err = env.EvalNaive(ctx, q, es)
	} else {
		p, perr := env.PlanQuery(q)
		if perr != nil {
			return Measurement{}, nil, nil, perr
		}
		rel, err = env.Eval(ctx, p, es)
	}
	if err != nil {
		return Measurement{}, nil, nil, err
	}
	meas := Measurement{
		Wall:      es.Wall,
		IOs:       mgr.Stats().IO(),
		IOLatency: c.IOLatency,
		CPUFactor: c.CPUFactor,
		Answer:    es.Answer,
	}
	snap := es.Plan()
	_, _, meas.DegreeEvals = snap.Totals()
	sortNodes(snap, func(n *exec.StatsSnapshot) {
		meas.SortWall += time.Duration(n.WallNanos)
		meas.SortIOs += n.PageIOs
	})
	return meas, es, rel, nil
}

// sortNodes calls fn for every sort node of the tree rooted at n.
func sortNodes(n *exec.StatsSnapshot, fn func(*exec.StatsSnapshot)) {
	if n.Op == "sort" {
		fn(n)
	}
	for _, c := range n.Children {
		sortNodes(c, fn)
	}
}
