package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/wire"
)

// span is one traced interval. Spans of one statement share Stmt; Parent
// names the span that caused this one. Operator spans come from the
// EXPLAIN ANALYZE tree, which records durations only: they start where
// their parent starts.
type span struct {
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const maxSpans = 200000 // bounds memory and the size of the spans file

// tracer is the executor of the traced run: it replays a workload's
// statements in-process through core.Session and records a span around
// each call into a layer, plus the counters those calls return.
type tracer struct {
	dir    string
	cold   bool // open the database for every statement, as nested_cold does
	sess   *core.Session
	parsed map[string]fsql.Statement // prepared statements, by text
	start  time.Time
	tally
}

// tally is what the tracer accumulates over the timed passes.
type tally struct {
	spans []span
	stmts int

	self      map[string]int64   // operator self time by node name, ns
	with      map[string]int     // statements whose tree has the node
	sum       map[string]float64 // counters summed over statements
	spanNS    map[string]int64   // span time by name
	spanN     map[string]int     // span count by name
	evalOther int64              // core.eval time no operator accounts for, ns
	walBytes  int64              // growth of the log file across write statements
	reads     int
	inserts   int
	batches   int
	wireBytes int64
	wireRows  int64
}

func newTally() tally {
	return tally{self: map[string]int64{}, with: map[string]int{},
		sum: map[string]float64{}, spanNS: map[string]int64{}, spanN: map[string]int{}}
}

func (t *tracer) now() int64 { return time.Since(t.start).Nanoseconds() }

func (t *tracer) span(stmt int, name, parent string, start, end int64) {
	t.spanNS[name] += end - start
	t.spanN[name]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{stmt, name, parent, start, end})
	}
}

// opLayer maps an EXPLAIN ANALYZE operator to the module whose work its
// self time is.
var opLayer = map[string]string{
	"sort": "extsort.sort", "index": "core.index", "scan": "storage.scan",
	"merge-join": "exec.join", "nl-join": "exec.join",
	"merge-anti-join": "exec.anti", "nl-anti-join": "exec.anti",
	"group-agg-join": "exec.agg", "project": "exec.project",
	"filter": "exec.filter", "kernel(fused)": "exec.filter",
}

// fusable are the operators a kernel could run: filters and joins.
var fusable = map[string]bool{
	"filter": true, "kernel(fused)": true, "merge-join": true, "nl-join": true,
	"merge-anti-join": true, "nl-anti-join": true, "group-agg-join": true,
}

// sorted reports whether a node is a sort that really sorted: it did so
// while the plan was built, before its parent started, after draining its
// own input. Its time is therefore neither part of its parent's nor does
// it contain its children's.
func sorted(n *exec.StatsSnapshot) bool {
	return n.Op == "sort" && (n.SortRuns > 0 || n.CacheMisses > 0 || n.Comparisons > 0)
}

// tree turns an operator tree into spans and accumulates self times and
// counters. A node's self time is its wall time minus that of the
// children it pulled from while it ran (see sorted for the exception). It
// returns the self time of the subtree.
func (t *tracer) tree(stmt int, n *exec.StatsSnapshot, parent string, start int64, seen map[string]bool) int64 {
	if n == nil {
		return 0
	}
	name, ok := opLayer[n.Op]
	if !ok {
		name = "exec." + n.Op
	}
	self := n.WallNanos
	if !sorted(n) {
		for _, c := range n.Children {
			if !sorted(c) {
				self -= c.WallNanos
			}
		}
	}
	if self < 0 {
		self = 0
	}
	t.self[name] += self
	if !seen[name] {
		seen[name] = true
		t.with[name]++
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{stmt, name, parent, start, start + n.WallNanos})
	}
	t.sum["degree_evals"] += float64(n.DegreeEvals)
	t.sum["comparisons"] += float64(n.Comparisons)
	t.sum["sort_runs"] += float64(n.SortRuns)
	t.sum["spill_bytes"] += float64(n.SpillBytes)
	t.sum["cache_hits"] += float64(n.CacheHits)
	t.sum["cache_misses"] += float64(n.CacheMisses)
	t.sum["index_hits"] += float64(n.IndexHits)
	if n.Op == "sort" || n.Op == "index" {
		t.sum["sorted_inputs"]++
	}
	if n.RngCount > 0 {
		t.sum["rng_sum"] += n.RngAvg * float64(n.RngCount)
		t.sum["rng_count"] += float64(n.RngCount)
	}
	if fusable[n.Op] {
		t.sum["fusable"]++
		if n.KernelTuples > 0 || n.Op == "kernel(fused)" {
			t.sum["fused"]++
		}
	}
	for _, c := range n.Children {
		self += t.tree(stmt, c, name, start, seen)
	}
	return self
}

// relRows renders an answer the way pkg/fuzzydb and the server do.
func relRows(rel *frel.Relation) ([][]string, []float64) {
	rows := make([][]string, rel.Len())
	degs := make([]float64, rel.Len())
	for i, tup := range rel.Tuples {
		row := make([]string, len(tup.Values))
		for j, v := range tup.Values {
			if v.Kind == frel.KindString {
				row[j] = v.Str
			} else {
				row[j] = v.Num.String()
			}
		}
		rows[i], degs[i] = row, tup.D
	}
	return rows, degs
}

// encode pushes an answer through the wire codec the way the server
// streams it: RowBatch frames of frame rows, written and read back
// through a buffer.
func (t *tracer) encode(rows [][]string, degs []float64, frame int) error {
	var buf bytes.Buffer
	batch := make([]wire.Row, 0, frame)
	flush := func(more bool) error {
		if err := wire.Write(&buf, &wire.RowBatch{Cursor: 1, Rows: batch, More: more}); err != nil {
			return err
		}
		t.wireBytes += int64(buf.Len())
		t.batches++
		_, err := wire.ReadMessage(&buf)
		batch = batch[:0]
		return err
	}
	for i, row := range rows {
		batch = append(batch, wire.Row{Degree: degs[i], Values: row})
		if len(batch) == frame {
			if err := flush(true); err != nil {
				return err
			}
		}
	}
	t.wireRows += int64(len(rows))
	return flush(false)
}

// operands converts the arguments of a prepared statement as pkg/fuzzydb
// binds them.
func operands(args []any) ([]fsql.Operand, error) {
	ops := make([]fsql.Operand, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			ops[i] = fsql.NumOperand(fuzzy.Crisp(float64(v)))
		case float64:
			ops[i] = fsql.NumOperand(fuzzy.Crisp(v))
		case string:
			ops[i] = fsql.StrOperand(v)
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T", i, a)
		}
	}
	return ops, nil
}

// do traces one statement. The time it returns is what the in-process
// caller of the untraced replay would have waited: open, parse, evaluate,
// render the answer, close. Planning on its own and the wire encoding are
// traced beside it: the evaluation plans again, and in-process nothing is
// encoded.
func (t *tracer) do(ctx context.Context, st stmt) (rows [][]string, degs []float64, d time.Duration, err error) {
	id := t.stmts
	t.stmts++
	var total int64
	if t.cold {
		a := t.now()
		if t.sess, err = openCore(t.dir); err != nil {
			return nil, nil, 0, err
		}
		b := t.now()
		t.span(id, "core.open", "", a, b)
		total += b - a
	}
	mgr := t.sess.Catalog().Manager()
	r0, w0, h0, e0 := mgr.Stats().Snapshot()

	// A prepared statement is parsed and planned when it is prepared, which
	// on a session that stays open is once, in the warm-ups.
	var parsed fsql.Statement
	prepared := false
	if st.style == "prepared" {
		parsed, prepared = t.parsed[st.sql]
	}
	if !prepared {
		p0 := t.now()
		parsed, err = fsql.ParseStatement(st.sql)
		p1 := t.now()
		t.span(id, "fsql.parse", "", p0, p1)
		if err != nil {
			return nil, nil, 0, err
		}
		total += p1 - p0
		if st.style == "prepared" && !t.cold {
			t.parsed[st.sql] = parsed
		}
	}
	if len(st.args) > 0 {
		ops, err := operands(st.args)
		if err != nil {
			return nil, nil, 0, err
		}
		if parsed, err = fsql.BindStatement(parsed, ops); err != nil {
			return nil, nil, 0, err
		}
	}

	if q, ok := parsed.(*fsql.Select); ok {
		t.reads++
		b := t.now()
		if !prepared {
			_, err := t.sess.Env.PlanQuery(q)
			a := b
			b = t.now()
			t.span(id, "plan.plan", "", a, b)
			if err != nil {
				return nil, nil, 0, err
			}
		}
		rel, es, err := t.sess.EvalAnalyze(ctx, q)
		c := t.now()
		t.span(id, "core.eval", "", b, c)
		if err != nil {
			return nil, nil, 0, err
		}
		total += c - b
		root := es.Plan()
		// What the operators do not account for: planning again inside the
		// evaluation, statistics, spilling a sort's input, loading an order
		// index, materializing the answer.
		// A sort that really sorted also streams its output to its parent,
		// and that part is in both nodes' times; hence the floor.
		if other := (c - b) - t.tree(id, root, "core.eval", b, map[string]bool{}); other > 0 {
			t.evalOther += other
		}
		if root != nil {
			t.sum["rows_out"] += float64(root.RowsOut)
		}
		rows, degs = relRows(rel) // pkg/fuzzydb renders the answer inside Query
		rendered := t.now()
		total += rendered - c
		frame := 256 // server.Config.BatchRows default
		if st.style == "cursor" {
			frame = 1 // the fetch size of the workload's cursor calls
		}
		if err := t.encode(rows, degs, frame); err != nil {
			return nil, nil, 0, err
		}
		t.span(id, "wire.encode", "", rendered, t.now())
	} else {
		if _, ok := parsed.(*fsql.Insert); ok {
			t.inserts++
		}
		wal := filepath.Join(mgr.Dir(), "wal")
		before := fileSize(wal)
		a := t.now()
		_, err := t.sess.ExecContext(ctx, parsed)
		b := t.now()
		t.span(id, "core.exec", "", a, b)
		if err != nil {
			return nil, nil, 0, err
		}
		total += b - a
		t.walBytes += fileSize(wal) - before
	}
	r1, w1, h1, e1 := mgr.Stats().Snapshot()
	t.sum["page_reads"] += float64(r1 - r0)
	t.sum["page_writes"] += float64(w1 - w0)
	t.sum["pool_hits"] += float64(h1 - h0)
	t.sum["evictions"] += float64(e1 - e0)
	if t.cold {
		a := t.now()
		if err := t.sess.Close(); err != nil {
			return nil, nil, 0, err
		}
		b := t.now()
		t.span(id, "core.close", "", a, b)
		total += b - a
	}
	return rows, degs, time.Duration(total), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives the per-layer metrics of the replay. Operator times are
// means over the statements whose tree holds the operator; counters are
// means over the read statements.
func (t *tracer) layers() map[string]float64 {
	opMS := func(name string) float64 { return ratio(float64(t.self[name])/1e6, float64(t.with[name])) }
	spanUS := func(name string) float64 { return ratio(float64(t.spanNS[name])/1e3, float64(t.spanN[name])) }
	perRead := func(key string) float64 { return ratio(t.sum[key], float64(t.reads)) }
	return map[string]float64{
		"fsql.parse_us":                spanUS("fsql.parse"),
		"plan.plan_us":                 spanUS("plan.plan"),
		"kernel.fused_op_ratio":        ratio(t.sum["fused"], t.sum["fusable"]),
		"extsort.sort_ms":              opMS("extsort.sort"),
		"extsort.runs":                 perRead("sort_runs"),
		"extsort.spill_bytes":          perRead("spill_bytes"),
		"core.sortcache_hit_ratio":     ratio(t.sum["cache_hits"], t.sum["cache_hits"]+t.sum["cache_misses"]),
		"core.index_hit_ratio":         ratio(t.sum["index_hits"], t.sum["sorted_inputs"]),
		"core.index_ms":                opMS("core.index"),
		"exec.join_ms":                 opMS("exec.join"),
		"exec.anti_ms":                 opMS("exec.anti"),
		"exec.agg_ms":                  opMS("exec.agg"),
		"exec.project_ms":              opMS("exec.project"),
		"exec.degree_evals":            perRead("degree_evals"),
		"exec.comparisons":             perRead("comparisons"),
		"exec.rows_out":                perRead("rows_out"),
		"exec.rng_avg":                 ratio(t.sum["rng_sum"], t.sum["rng_count"]),
		"storage.scan_ms":              opMS("storage.scan"),
		"storage.page_reads":           ratio(t.sum["page_reads"], float64(t.stmts)),
		"storage.page_writes":          ratio(t.sum["page_writes"], float64(t.stmts)),
		"storage.evictions":            ratio(t.sum["evictions"], float64(t.stmts)),
		"storage.pool_hit_ratio":       ratio(t.sum["pool_hits"], t.sum["pool_hits"]+t.sum["page_reads"]),
		"wire.encode_us_per_batch":     ratio(float64(t.spanNS["wire.encode"])/1e3, float64(t.batches)),
		"wire.bytes_per_row":           ratio(float64(t.wireBytes), float64(t.wireRows)),
		"core.eval_ms":                 spanUS("core.eval") / 1e3,
		"core.eval_other_ms":           ratio(float64(t.evalOther)/1e6, float64(t.reads)),
		"trace.statements":             float64(t.stmts),
		"storage.wal_bytes_per_insert": ratio(float64(t.walBytes), float64(t.inserts)),
	}
}

// breakdown prints where the traced replay's time went: the top-level
// spans, with the evaluation split into its operators' self times. This is
// the "where the time goes" table of the README.
func (t *tracer) breakdown(w io.Writer, workloadName string) {
	type row struct {
		name string
		ns   int64
	}
	var rows []row
	var total int64
	for _, name := range []string{"core.open", "fsql.parse", "plan.plan", "core.exec", "wire.encode", "core.close"} {
		rows = append(rows, row{name, t.spanNS[name]})
		total += t.spanNS[name]
	}
	for name, ns := range t.self {
		rows = append(rows, row{"core.eval: " + name, ns})
		total += ns
	}
	rows = append(rows, row{"core.eval: other", t.evalOther})
	total += t.evalOther
	sort.Slice(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	fmt.Fprintf(w, "where the time goes: %s, %d traced statements, %.3g ms each on average\n", workloadName, t.stmts, ratio(float64(total)/1e6, float64(t.stmts)))
	for _, r := range rows {
		if r.ns > 0 {
			fmt.Fprintf(w, "  %-28s %5.1f%%  %9.3f ms/statement\n", r.name, 100*ratio(float64(r.ns), float64(total)), ratio(float64(r.ns)/1e6, float64(t.stmts)))
		}
	}
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func openCore(dir string) (*core.Session, error) {
	sess, err := core.OpenSessionOptions(dir, core.SessionOptions{BufferPages: poolPages})
	if err != nil {
		return nil, err
	}
	sess.Env.Parallelism = parallelism
	return sess, nil
}

// traceWorkload is the traced phase: the workload's passes replayed
// through the tracer, then the layer probes.
func traceWorkload(workloadName, dir, spansPath string, sz sizes, seed int64, passes int, budget time.Duration, ref map[string]string) (*phaseResult, error) {
	ctx := context.Background()
	t := &tracer{dir: dir, cold: workloadName == "nested_cold", parsed: map[string]fsql.Statement{}, start: time.Now(), tally: newTally()}
	var err error
	if !t.cold {
		if t.sess, err = openCore(dir); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	start := time.Now()
	begin := func() time.Time { // the warm-ups leave no numbers behind
		t.tally = newTally()
		start = time.Now()
		return start
	}
	done, err := runPasses(ctx, t, passOf(workloadName, sz, seed, 0), passes, budget, rec, ref, begin)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	out := rec.result(time.Since(start), done)
	layers := t.layers()
	t.breakdown(os.Stderr, workloadName)
	if err := t.writeSpans(spansPath); err != nil {
		return nil, err
	}

	if t.cold {
		if t.sess, err = openCore(dir); err != nil {
			return nil, err
		}
	}
	defer t.sess.Close()
	c0 := time.Now()
	if err := t.sess.Catalog().Manager().Checkpoint(); err != nil {
		return nil, err
	}
	layers["storage.checkpoint_ms"] = float64(time.Since(c0).Nanoseconds()) / 1e6
	if err := probeLayers(t.sess, workloadName, dir, layers); err != nil {
		return nil, err
	}
	out.Layers = layers
	return out, nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// probeLayers times single layers directly, on the workload's own data:
// tuple decode, the fused kernel loop, kernel compilation, and the
// machine's fsync.
func probeLayers(sess *core.Session, workloadName, dir string, layers map[string]float64) error {
	relName, colA, colB := "R", 1, 2
	switch workloadName {
	case "served_small":
		relName, colA, colB = "F", 2, 3
	case "served_rw":
		relName = "W0"
	}
	h, err := sess.Catalog().Relation(relName)
	if err != nil {
		return err
	}
	const reps = 20

	// frel: decode every record of the relation.
	var recs [][]byte
	sc := h.Scan()
	for {
		rec, ok := sc.NextRaw()
		if !ok {
			break
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
	err = sc.Err()
	sc.Close()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, rec := range recs {
			if _, _, err := frel.DecodeTuple(h.Schema, rec); err != nil {
				return err
			}
		}
	}
	layers["frel.decode_ns_per_tuple"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(reps*len(recs)))

	// kernel: compile a two-step filter chain and a join residual, then
	// run the chain over the relation as one flat batch.
	about := frel.Num(fuzzy.Tri(995, 1000, 1005))
	steps := []kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpEq, Left: kernel.Column(colA), Right: kernel.Constant(about)},
		{Kind: kernel.StepCompare, Op: fuzzy.OpGe, Left: kernel.Column(colB), Right: kernel.Constant(about)},
	}
	pair := []kernel.PairStep{{Kind: kernel.StepCompare, Op: fuzzy.OpEq, Left: kernel.LeftColumn(colA), Right: kernel.RightColumn(colA)}}
	const compiles = 2000
	var prog *kernel.Program
	t0 = time.Now()
	for i := 0; i < compiles; i++ {
		if prog, err = kernel.Compile(steps); err != nil {
			return err
		}
		if _, err = kernel.CompilePair(pair); err != nil {
			return err
		}
	}
	layers["kernel.compile_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / compiles
	rel, err := h.ReadAll()
	if err != nil {
		return err
	}
	degs := make([]float64, rel.Len())
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		prog.RunBatch(rel.Tuples, degs)
	}
	layers["kernel.run_ns_per_tuple"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(reps*rel.Len()))

	// storage: what one 4 KiB write + fsync costs in the database
	// directory. A note about the machine, not about the program.
	probe := filepath.Join(dir, "fsync.probe")
	f, err := os.Create(probe)
	if err != nil {
		return err
	}
	defer os.Remove(probe)
	block := make([]byte, 4096)
	syncs := make([]int64, reps)
	for i := range syncs {
		t0 = time.Now()
		if _, err := f.Write(block); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		syncs[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	layers["storage.fsync_probe_ms"] = percentile(syncs, 0.5)
	return f.Close()
}
