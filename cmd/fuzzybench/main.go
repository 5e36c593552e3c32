// Command fuzzybench regenerates the tables and figures of the paper's
// evaluation (Section 9). Each experiment compares the naive nested-loop
// evaluation of the nested type J query against the extended merge-join
// evaluation of its unnested form, printing the paper's published numbers
// next to the measured ones.
//
// Usage:
//
//	fuzzybench [-experiment table1|table2|table3|table4|fig3|all]
//	           [-scalediv 32] [-iolatency 10ms] [-dir DIR] [-verify]
//	           [-json] [-indexes]
//
// With -json, instead of the experiment tables, both methods run once on
// the standard workload pair with EXPLAIN ANALYZE collection and the
// per-operator statistics are printed as a machine-readable JSON report
// (schema in DESIGN.md).
//
// -indexes pre-builds persistent order indexes on the join attributes of
// the generated relations, so the merge-join method's cold run is served
// from the indexes instead of external-sorting.
//
// Absolute times are not comparable across three decades of hardware; the
// point of the reproduction is the shape: who wins, by how much, and how
// the gap moves with relation size, tuple size, and join fanout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: table1, table2, table3, table4, fig3, or all")
		scaleDiv   = flag.Int("scalediv", 32, "divide the paper's tuple counts and buffer size by this factor")
		ioLatency  = flag.Duration("iolatency", 10*time.Millisecond, "simulated per-page-I/O latency of the response model")
		dir        = flag.String("dir", "", "scratch directory (default: system temp)")
		cpuFactor  = flag.Float64("cpufactor", 100, "scale measured compute time in the response model, representing the paper's ~100x slower 1995 CPU; set 1 for raw measurements")
		verify     = flag.Bool("verify", false, "cross-check that both methods return identical answers")
		seed       = flag.Int64("seed", 1, "workload random seed")
		parallel   = flag.Int("parallel", 1, "merge-join worker count: 1 reproduces the paper's serial execution, 0 uses all CPUs")
		jsonStats  = flag.Bool("json", false, "run both methods once with EXPLAIN ANALYZE collection and print the per-operator statistics as JSON")
		indexes    = flag.Bool("indexes", false, "pre-build persistent order indexes on the join attributes, so the merge-join method's cold run skips the external sort")
	)
	flag.Parse()

	cfg := bench.Config{
		Dir:         *dir,
		ScaleDiv:    *scaleDiv,
		IOLatency:   *ioLatency,
		CPUFactor:   *cpuFactor,
		Parallelism: *parallel,
		Indexes:     *indexes,
		Verify:      *verify,
		Seed:        *seed,
	}

	if *jsonStats {
		n := 8000 / cfg.ScaleDiv
		if n < 50 {
			n = 50
		}
		rep, err := cfg.AnalyzePair(n, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzybench: analyze: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "fuzzybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	names := bench.Names
	if *experiment != "all" {
		if _, ok := bench.Experiments[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "fuzzybench: unknown experiment %q (want one of %v or all)\n", *experiment, bench.Names)
			os.Exit(2)
		}
		names = []string{*experiment}
	}

	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		tbl, err := bench.Experiments[name](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzybench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(tbl.Render())
		fmt.Printf("(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}
}
