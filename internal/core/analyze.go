package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/frel"
)

// ExecStats is the result of an EXPLAIN ANALYZE evaluation: the chosen
// strategy plus a per-operator tree of runtime measures. The per-operator
// counters are deterministic for serial execution and aggregate exactly
// across parallel partitions — the same query reports identical row and
// comparison totals at any Parallelism setting — so they double as
// correctness oracles for the partitioned operators.
type ExecStats struct {
	Strategy Strategy
	Note     string
	Rules    []string      // planner rewrite rules applied, in order
	Wall     time.Duration // total evaluation wall time
	Answer   int           // answer cardinality (after thresholding)
	Pruned   int64         // answer rows the WITH cut dropped at the end (not those a floored operator never produced)
	PoolHits int64         // buffer-pool page hits during the evaluation
	// PoolMisses counts buffer-pool misses (each one is a physical page
	// read).
	PoolMisses int64
	Root       *exec.OpStats // root of the operator tree (never nil on success)

	// nodes are all the nodes the run created, attached to the tree or
	// not (a failed run may never attach the ones it counted into).
	nodes []*exec.OpStats
}

// QueryStats is the machine-readable summary of an EXPLAIN ANALYZE run:
// the one JSON shape of the public API's stats and of fuzzybench -json.
type QueryStats struct {
	Strategy   string              `json:"strategy"`        // unnesting strategy chosen
	Note       string              `json:"note,omitempty"`  // strategy detail (theorem applied)
	Rules      []string            `json:"rules,omitempty"` // planner rewrite rules applied, in order
	WallNanos  int64               `json:"wall_ns"`         // total evaluation wall time
	Answer     int                 `json:"answer_rows"`     // answer cardinality
	Pruned     int64               `json:"pruned_by_with"`  // rows dropped by WITH D >=
	PoolHits   int64               `json:"pool_hits"`       // buffer-pool page hits
	PoolMisses int64               `json:"pool_misses"`     // buffer-pool misses (physical reads)
	Plan       *exec.StatsSnapshot `json:"plan"`            // per-operator tree
}

// Summary returns the stats as a QueryStats.
func (s *ExecStats) Summary() *QueryStats {
	return &QueryStats{
		Strategy:   s.Strategy.String(),
		Note:       s.Note,
		Rules:      s.Rules,
		WallNanos:  s.Wall.Nanoseconds(),
		Answer:     s.Answer,
		Pruned:     s.Pruned,
		PoolHits:   s.PoolHits,
		PoolMisses: s.PoolMisses,
		Plan:       s.Plan(),
	}
}

// Wall returns the total evaluation wall time.
func (s *QueryStats) Wall() time.Duration { return time.Duration(s.WallNanos) }

// String renders the stats as the shell's EXPLAIN ANALYZE output: the
// lines of the PLAN rows an EXPLAIN ANALYZE statement returns.
func (s *QueryStats) String() string {
	return strings.Join(StatsLines(s.Strategy, s.Note, s.Rules, s.Wall(), s.Answer, s.Pruned, s.PoolHits, s.PoolMisses, s.Plan), "\n") + "\n"
}

// Plan snapshots the operator tree into plain serializable values.
func (s *ExecStats) Plan() *exec.StatsSnapshot {
	if s.Root == nil {
		return nil
	}
	return s.Root.Snapshot()
}

// Lines renders the stats as text lines (StatsLines).
func (s *ExecStats) Lines() []string {
	return StatsLines(s.Strategy.String(), s.Note, s.Rules, s.Wall, s.Answer, s.Pruned, s.PoolHits, s.PoolMisses, s.Plan())
}

// StatsLines renders the stats of an EXPLAIN ANALYZE run as text lines: a
// strategy header, the planner rules applied when there are any, a
// summary line, and one indented line per operator of plan. It is the one
// rendering of those stats, as ExecStats and as the public API's
// QueryStats.
func StatsLines(strategy, note string, rules []string, wall time.Duration, answer int, pruned, poolHits, poolMisses int64, plan *exec.StatsSnapshot) []string {
	lines := []string{
		fmt.Sprintf("strategy: %s (%s)", strategy, note),
	}
	if len(rules) > 0 {
		lines = append(lines, "rules: "+strings.Join(rules, ", "))
	}
	lines = append(lines,
		fmt.Sprintf("wall: %s  answer: %d tuples  pruned by WITH: %d  pool: %d hits / %d misses",
			wall.Round(time.Microsecond), answer, pruned, poolHits, poolMisses))
	if plan != nil {
		lines = append(lines, strings.Split(strings.TrimRight(plan.Render(), "\n"), "\n")...)
	}
	return lines
}

// newNode returns the stats node an operator counts into: a fresh node of
// the tree when an EXPLAIN ANALYZE collection is active, the environment's
// running total otherwise.
func (e *Env) newNode(op, label string) *exec.OpStats {
	if e.analyze == nil {
		return e.Work
	}
	node := exec.NewOpStats(op, label)
	e.analyze.nodes = append(e.analyze.nodes, node)
	return node
}

// attach wires node into the stats tree: the nodes of already-wrapped
// inputs become its children, node becomes the current root candidate
// (the outermost operator wrapped last wins), and src is wrapped so its
// rows out and wall time are measured. Identity outside EXPLAIN ANALYZE.
// An input shifted for a NEAR correlation is seen through: the shift has
// no node of its own.
func (e *Env) attach(node *exec.OpStats, src exec.Source, inputs ...exec.Source) exec.Source {
	if e.analyze == nil {
		return src
	}
	for _, in := range inputs {
		if sh, ok := in.(*shiftSource); ok {
			in = sh.src
		}
		if st, ok := in.(*exec.Stated); ok {
			node.AddChild(st.Node)
		}
	}
	e.analyze.Root = node
	return exec.NewStated(src, node)
}

// stated creates a node and attaches it in one step.
func (e *Env) stated(op, label string, src exec.Source, inputs ...exec.Source) exec.Source {
	return e.attach(e.newNode(op, label), src, inputs...)
}

// notePruned accounts rows dropped by the answer threshold.
func (e *Env) notePruned(n int) {
	if e.analyze != nil && n > 0 {
		e.analyze.Pruned += int64(n)
		if e.analyze.Root != nil {
			e.analyze.Root.Pruned.Add(int64(n))
		}
	}
}

// evaluate runs one evaluation of Eval or EvalNaive under ctx. A non-nil
// es is the active stats collection while run runs: it receives the
// run's wall time, answer size and buffer-pool traffic, and the work of
// its nodes is added to the environment's running total, also when the
// run fails (a plain run counts there as it goes).
func (e *Env) evaluate(ctx context.Context, es *ExecStats, run func() (*frel.Relation, error)) (*frel.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prevCtx, prevES := e.ctx, e.analyze
	e.ctx, e.analyze = ctx, es
	defer func() { e.ctx, e.analyze = prevCtx, prevES }()
	if es == nil {
		return run()
	}
	stats := e.cat.Manager().Stats()
	reads0, _, hits0, _ := stats.Snapshot()
	start := time.Now()
	rel, err := run()
	es.Wall = time.Since(start)
	for _, n := range es.nodes {
		e.Work.Add(n)
	}
	es.nodes = nil
	if err != nil {
		return nil, err
	}
	es.Answer = rel.Len()
	reads1, _, hits1, _ := stats.Snapshot()
	es.PoolHits, es.PoolMisses = hits1-hits0, reads1-reads0
	es.Root.PoolHits.Store(es.PoolHits)
	es.Root.PoolMisses.Store(es.PoolMisses)
	return rel, nil
}
