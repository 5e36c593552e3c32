// Command benchmark is the repository's benchmark: four workloads over
// the embedded API and a real fuzzydbd, end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run, every
// answer verified. BENCHMARK.json at the repository root is its contract;
// README.md in this directory is its method.
//
//	go run ./benchmark --workload nested_warm --seed 1 --seconds 30 --trace 0
//	go run ./benchmark --workload all --seed 1 > parent.json
//	go run ./benchmark -selfcheck
//	go run ./benchmark -compare parent.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line of every role.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string

	selfcheck bool
	compare   bool

	// Child roles: the benchmark re-executes itself so that set-up, the
	// gate and each measured phase run in processes of their own.
	role, dir, result, spans string
	passes                   int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "nested_cold, nested_warm, served_small, served_rw or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds after which a run that has not finished its fixed work is cut short (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for a smoke run")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run everything twice and compare the two against the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two saved results: -compare parent.json change.json")
	fs.StringVar(&o.role, "role", "", "internal: child role")
	fs.StringVar(&o.dir, "dir", "", "internal: database directory")
	fs.StringVar(&o.result, "result", "", "internal: file the child writes its result to")
	fs.StringVar(&o.spans, "spans", "", "internal: file the traced child writes its spans to")
	fs.IntVar(&o.passes, "passes", 0, "internal: timed passes of the child's phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", o.scale)
		return 2
	}

	var err error
	switch {
	case o.role != "":
		err = child(o, sz)
	case o.compare:
		err = compareFiles(fs.Args(), stdout)
	default:
		err = parent(o, sz, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// child runs one role in this process and writes its result file.
func child(o options, sz sizes) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	ref := map[string]string{}
	if o.role == "run" || o.role == "trace" {
		if err := readJSON(o.result+".ref", &ref); err != nil {
			return err
		}
	}
	var res *phaseResult
	var err error
	switch o.role {
	case "setup":
		return setupData(o.workload, o.dir, sz, o.seed)
	case "gate":
		res, err = gate(o.workload, o.dir, o.dir+".replica", sz, o.seed)
	case "run":
		res, err = runEmbedded(o.workload, o.dir, sz, o.seed, o.passes, budget, ref)
	case "trace":
		res, err = traceWorkload(o.workload, o.dir, o.spans, sz, o.seed, o.passes, budget, ref)
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	if err != nil {
		return err
	}
	return writeJSON(o.result, res)
}

// findRoot walks up from the working directory to the module root. The
// benchmark builds and runs the program from source, so outside a
// checkout there is nothing to measure.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "fuzzydbd")); err != nil {
				return "", fmt.Errorf("checkout at %s has no cmd/fuzzydbd", dir)
			}
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("not inside a checkout of the repository (no go.mod of module repro)")
		}
		dir = up
	}
}

// bench is one invocation's fixed context.
type bench struct {
	o      options
	sz     sizes
	spec   *spec
	root   string
	outDir string // benchmark/out: binaries and span files, kept
	work   string // benchmark/out/run-<pid>: databases, removed at exit
	self   string
	server string // fuzzydbd binary, built on first use
	stderr io.Writer
}

func parent(o options, sz sizes, stdout, stderr io.Writer) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{o: o, sz: sz, spec: sp, root: root, self: self, stderr: stderr,
		outDir: filepath.Join(root, "benchmark", "out")}
	b.work = filepath.Join(b.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)

	if o.selfcheck {
		return b.selfcheck(stdout)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	results := map[string]*output{}
	for _, name := range names {
		known := false
		for _, w := range sp.Workloads {
			known = known || w.Name == name
		}
		if !known {
			return fmt.Errorf("unknown workload %q", name)
		}
		out, err := b.workload(name, o.trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results[name] = out
	}
	var final any = results[names[0]]
	if o.workload == "all" {
		final = saved{Seed: o.seed, Trace: o.trace, Workloads: results}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// spawn re-executes the benchmark in a child role and waits for it.
func (b *bench) spawn(role, workloadName, dir, result string, extra ...string) error {
	args := append([]string{
		"-role", role, "-workload", workloadName, "-dir", dir, "-result", result,
		"-seed", fmt.Sprint(b.o.seed), "-scale", b.o.scale,
	}, extra...)
	cmd := exec.Command(b.self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2", childEnv+"=1")
	cmd.Stdout = b.stderr
	cmd.Stderr = b.stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	return nil
}

// childEnv marks a re-executed child, for the test binary (see
// bench_test.go); the benchmark proper decides by -role alone.
const childEnv = "FUZZYBENCH_CHILD"

func isServed(workloadName string) bool { return strings.HasPrefix(workloadName, "served_") }

// setUp builds the workload's database in dir in a child process and, for
// a served workload, starts fuzzydbd on it. It returns the seconds from
// nothing to a database that answers: generate, load, build indexes,
// start the server, first successful Dial.
func (b *bench) setUp(workloadName, dir string) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := b.spawn("setup", workloadName, dir, ""); err != nil {
		return 0, err
	}
	if !isServed(workloadName) {
		return time.Since(start).Seconds(), nil
	}
	srv, err := startServer(b.server, dir)
	if err != nil {
		return 0, err
	}
	secs := time.Since(start).Seconds()
	_, err = srv.stop()
	return secs, err
}

// workload runs one workload once and returns its output object.
func (b *bench) workload(name string, traced bool) (*output, error) {
	if isServed(name) && b.server == "" {
		bin, err := buildServer(b.root, filepath.Join(b.outDir, "bin"))
		if err != nil {
			return nil, err
		}
		b.server = bin
	}
	dir := filepath.Join(b.work, name)

	// Set-up, repeated: setup_s is the median. The last database is kept.
	reps := b.sz.setups
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		secs, err := b.setUp(name, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, secs)
	}

	// Correctness gate and reference fingerprints.
	gatePath := filepath.Join(b.work, name+".gate.json")
	if err := b.spawn("gate", name, dir, gatePath); err != nil {
		return nil, err
	}
	var gateRes phaseResult
	if err := readJSON(gatePath, &gateRes); err != nil {
		return nil, err
	}
	ref := gateRes.Prints
	out := &output{Attempted: gateRes.Attempted, Failed: gateRes.Failed}
	b.logErrors(name+" gate", gateRes.Errors)
	differ, err := b.addCommitted(name, ref)
	if err != nil {
		return nil, err
	}
	out.Failed += len(differ)
	b.logErrors(name+" gate", differ)

	// The phases. An untraced run has one: the workload itself. A traced
	// run divides the work between the real server (served workloads), an
	// untraced in-process replay and the traced replay, each on a database
	// set up afresh, so that pass k is the same work and must give the same
	// answers on every path.
	var kinds []string
	if isServed(name) {
		kinds = append(kinds, "serve")
	}
	if traced || !isServed(name) {
		kinds = append(kinds, "run")
	}
	if traced {
		kinds = append(kinds, "trace")
	}
	passes := b.sz.passes[name] / len(kinds)
	if passes < 1 {
		passes = 1
	}
	seconds := b.o.seconds / float64(len(kinds))
	phases := map[string]*phaseResult{}
	for i, kind := range kinds {
		if i > 0 {
			if _, err := b.setUp(name, dir); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		res, err := b.phase(kind, name, dir, passes, seconds, ref)
		if err != nil {
			return nil, err
		}
		if res.Passes < passes {
			fmt.Fprintf(b.stderr, "benchmark: %s %s: cut short by --seconds after %d of %d passes\n", name, kind, res.Passes, passes)
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		b.logErrors(name+" "+kind, res.Errors)
		for k, v := range res.Prints {
			ref[k] = v
		}
		phases[kind] = res
	}

	specs := b.spec.EndToEnd
	var values map[string]float64
	if traced {
		specs, values = b.spec.PerLayer, phases["trace"].Layers
		acrossPhases(values, phases["serve"], phases["run"], phases["trace"])
	} else {
		values = endToEnd(phases[kinds[0]], setups)
		if err := b.saveFingerprints(name, ref); err != nil {
			return nil, err
		}
	}
	if out.Metrics, err = report(specs, values); err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// phase runs one phase of a workload on the database in dir: "serve" with
// this process as the load generator of a fuzzydbd child, "run" (the
// embedded API) and "trace" (the tracer) in a child process of their own,
// so that peak_rss_mb covers the measured phase only.
func (b *bench) phase(kind, name, dir string, passes int, seconds float64, ref map[string]string) (*phaseResult, error) {
	if kind != "serve" {
		resPath := filepath.Join(b.work, name+"."+kind+".json")
		if err := writeJSON(resPath+".ref", ref); err != nil {
			return nil, err
		}
		extra := []string{"-passes", fmt.Sprint(passes), "-seconds", fmt.Sprint(seconds)}
		if kind == "trace" {
			extra = append(extra, "-spans", filepath.Join(b.outDir, "spans-"+name+".jsonl"))
		}
		if err := b.spawn(kind, name, dir, resPath, extra...); err != nil {
			return nil, err
		}
		var res phaseResult
		if err := readJSON(resPath, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}

	srv, err := startServer(b.server, dir)
	if err != nil {
		return nil, err
	}
	res := runServed(srv.addr, name, b.sz, b.o.seed, passes, time.Duration(seconds*float64(time.Second)), ref)
	// A server that died, hung or shut down uncleanly fails the run: the
	// statements it had acknowledged are not known to be durable.
	if res.PeakRSSKB, err = srv.stop(); err != nil {
		res.Failed++
		res.Attempted++
		res.Errors = append(res.Errors, err.Error())
	}
	if res.UserBytes, res.DiskBytes, err = atRest(dir); err != nil {
		return nil, err
	}
	return res, nil
}

// acrossPhases fills the per-layer metrics that compare phases of the
// traced run: what tracing adds to the in-process replay, and what the
// wire, the server and pkg/client add to a read over running it in-process
// on the same data. On an embedded workload the client is the in-process
// caller and the server adds nothing.
func acrossPhases(values map[string]float64, served, inproc, traced *phaseResult) {
	all := pick(inproc.Samples, every)
	values["trace.overhead_ratio"] = ratio(percentile(pick(traced.Samples, every), 0.5), percentile(all, 0.5))
	values["trace.statements"] = float64(len(traced.Samples))
	values["server.overhead_us"] = 0
	values["server.txn_p50_ms"] = 0
	if served != nil {
		plainRead := func(s sample) bool { return isRead(s) && s.Style == "plain" }
		values["server.overhead_us"] = (percentile(pick(served.Samples, plainRead), 0.5) - percentile(pick(inproc.Samples, plainRead), 0.5)) * 1e3
		all = pick(served.Samples, every)

		// A transaction is the run of statements from BEGIN to COMMIT; the
		// samples of one connection are contiguous.
		var txns []int64
		var open int64
		for _, s := range served.Samples {
			if s.Group != "txn" {
				continue
			}
			if s.Kind == "BEGIN" {
				open = 0
			}
			open += s.NS
			if s.Kind == "COMMIT" {
				txns = append(txns, open)
			}
		}
		sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
		values["server.txn_p50_ms"] = percentile(txns, 0.5)
	}
	// K3 as the client sees it; served_small has none (see smallClasses).
	client := inproc
	if served != nil {
		client = served
	}
	values["client.chain_p50_ms"] = percentile(pick(client.Samples, func(s sample) bool { return s.Group == "chain" }), 0.5)
	values["client.stmt_p99_ms"] = percentile(all, 0.99)
	values["client.stmt_p999_ms"] = percentile(all, 0.999)
}

func (b *bench) logErrors(what string, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(b.stderr, "benchmark: %s: %s\n", what, e)
	}
}

// fingerprintsFile holds the committed answer fingerprints of seed 1 at
// full scale, by workload and key.
const fingerprintsFile = "fingerprints.json"

// committedIterations limits which served_rw iterations are committed:
// how many a run reaches depends on the machine.
const committedIterations = 3

// addCommitted merges the committed fingerprints into the reference when
// the run uses the seed and scale they were recorded at. Where the gate's
// answer differs from the committed one it returns a message: a wrong
// answer, for the caller to count.
func (b *bench) addCommitted(name string, ref map[string]string) (differ []string, err error) {
	if b.o.seed != 1 || b.o.scale != "full" {
		return nil, nil
	}
	all := map[string]map[string]string{}
	err = readJSON(filepath.Join(b.root, "benchmark", fingerprintsFile), &all)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	for k, v := range all[name] {
		if prev, ok := ref[k]; ok && prev != v {
			differ = append(differ, fmt.Sprintf("wrong answer for %s: fingerprint %s, committed %s", k, prev, v))
			continue
		}
		ref[k] = v
	}
	return differ, nil
}

// saveFingerprints writes the fingerprints a seed-1 full-scale run saw to
// benchmark/out, in the committed file's form, so that the committed file
// can be refreshed from it after a deliberate change of the data.
func (b *bench) saveFingerprints(name string, prints map[string]string) error {
	if b.o.seed != 1 || b.o.scale != "full" {
		return nil
	}
	keep := map[string]string{}
	for k, v := range prints {
		if _, iter, ok := strings.Cut(k, "@"); ok {
			if n, err := strconv.Atoi(iter); err != nil || n >= committedIterations {
				continue
			}
		}
		keep[k] = v
	}
	path := filepath.Join(b.outDir, fingerprintsFile)
	all := map[string]map[string]string{}
	if err := readJSON(path, &all); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	all[name] = keep
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
