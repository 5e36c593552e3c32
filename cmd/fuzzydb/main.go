// Command fuzzydb is an interactive Fuzzy SQL shell (and script runner)
// over the fuzzy relational database engine. Statements end with ';'.
//
//	fuzzydb                  # interactive shell (temporary database)
//	fuzzydb -dir mydb        # open or create a persistent database
//	fuzzydb -f script.fsql   # run a script, print query answers
//
// Supported statements:
//
//	CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
//	DEFINE TERM 'medium young' AS TRAP(20, 25, 30, 35);
//	INSERT INTO F VALUES (101, 'Ann', 'about 35', 'about 60K') DEGREE 1;
//	SELECT F.NAME FROM F WHERE F.AGE = 'medium young'
//	    AND F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')
//	    WITH D >= 0.5;
//	DROP TABLE F;
//	EXPLAIN SELECT …;          -- show the unnesting strategy
//	EXPLAIN ANALYZE SELECT …;  -- run it and print per-operator statistics
//	CHECKPOINT;                -- flush relations, truncate the write-ahead log
//
// Databases are crash-safe: mutations go through a write-ahead log that is
// replayed on open, and CHECKPOINT truncates it.
//
// The paper's Fig. 1 / Fig. 2 linguistic terms ("medium young", "middle
// age", "high", …) are predefined; DEFINE TERM adds or overrides terms.
// Meta commands: \d (list relations), \terms (list terms),
// \explain SELECT … (shorthand for EXPLAIN), \q (quit).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/frel"
	"repro/internal/fsql"
)

func main() {
	var (
		script = flag.String("f", "", "run this Fuzzy SQL script instead of the interactive shell")
		dir    = flag.String("dir", "", "database directory (default: a fresh temporary directory)")
		pages  = flag.Int("buffer", 256, "buffer pool size in 8 KiB pages (default: the paper's 2 MB)")
	)
	flag.Parse()

	dbdir := *dir
	if dbdir == "" {
		d, err := os.MkdirTemp("", "fuzzydb-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		dbdir = d
	}
	sess, err := core.OpenSession(dbdir, *pages)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	a := &app{sess: sess, out: os.Stdout}

	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		// SIGINT cancels the running statement and aborts the script.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := a.runScript(ctx, string(src)); err != nil {
			fatal(err)
		}
		return
	}

	a.repl(os.Stdin)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzydb:", err)
	os.Exit(1)
}

// app bundles the session with the output stream, so the shell logic is
// testable.
type app struct {
	sess *core.Session
	out  io.Writer
}

// runScript parses and executes a script under ctx, printing every query
// answer. A cancelled context aborts the running statement and skips the
// rest of the script.
func (a *app) runScript(ctx context.Context, src string) error {
	stmts, err := fsql.ParseScript(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		rel, err := a.sess.ExecContext(ctx, st)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if rel != nil {
			a.printRelation(rel)
		}
	}
	return nil
}

// repl reads statements from in until EOF or \q. SIGINT cancels the
// running statement (returning to the prompt) and is ignored while idle;
// quit with \q or EOF.
func (a *app) repl(in io.Reader) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	fmt.Fprintln(a.out, "fuzzydb — Fuzzy SQL shell (statements end with ';', \\q quits, \\d lists relations)")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "fuzzydb> "
	for {
		fmt.Fprint(a.out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(a.out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if a.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "      -> "
			continue
		}
		src := buf.String()
		buf.Reset()
		prompt = "fuzzydb> "
		// Ctrl-C while the statement runs cancels it and returns to the
		// prompt rather than killing the shell.
		select {
		case <-sig: // drop any interrupt typed at the prompt
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			select {
			case <-sig:
				cancel()
			case <-done:
			}
		}()
		err := a.runScript(ctx, src)
		close(done)
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(a.out, "cancelled")
		default:
			fmt.Fprintln(a.out, "error:", err)
		}
	}
}

// meta handles shell meta commands; it returns true to quit.
func (a *app) meta(cmd string) bool {
	switch {
	case cmd == "\\q" || cmd == "\\quit":
		return true
	case cmd == "\\d":
		for _, name := range a.sess.Catalog().Relations() {
			h, err := a.sess.Catalog().Relation(name)
			if err != nil {
				continue
			}
			fmt.Fprintf(a.out, "%s  (%d tuples, %d pages)\n", h.Schema, h.NumTuples(), h.NumPages())
		}
	case cmd == "\\stats":
		stats := a.sess.Catalog().Manager().Stats()
		fmt.Fprintf(a.out, "physical I/O: %s\n", stats)
		w := a.sess.Env.Work
		fmt.Fprintf(a.out, "work: degree evals=%d comparisons=%d sort cache hits=%d misses=%d index hits=%d\n",
			w.DegreeEvals.Load(), w.Comparisons.Load(), w.CacheHits.Load(), w.CacheMisses.Load(), w.IndexHits.Load())
	case cmd == "\\terms":
		for _, name := range a.sess.Catalog().Terms() {
			t, _ := a.sess.Catalog().Term(name)
			fmt.Fprintf(a.out, "%-16s %s\n", name, t)
		}
	case strings.HasPrefix(cmd, "\\export ") || strings.HasPrefix(cmd, "\\import "):
		fields := strings.Fields(cmd)
		if len(fields) != 3 {
			fmt.Fprintln(a.out, "usage: \\export REL FILE.csv  or  \\import REL FILE.csv")
			break
		}
		var err error
		if fields[0] == "\\export" {
			err = a.exportCSV(fields[1], fields[2])
		} else {
			err = a.importCSV(fields[1], fields[2])
		}
		if err != nil {
			fmt.Fprintln(a.out, "error:", err)
		}
	case strings.HasPrefix(cmd, "\\explain "):
		src := strings.TrimSuffix(strings.TrimPrefix(cmd, "\\explain "), ";")
		q, err := fsql.ParseQuery(src)
		if err != nil {
			fmt.Fprintln(a.out, "error:", err)
			break
		}
		fmt.Fprintln(a.out, "strategy:", core.PlanSummary(a.sess.Env.PlanQuery(q)))
	default:
		fmt.Fprintln(a.out, "meta commands: \\d  \\terms  \\stats  \\explain SELECT ...;  \\export REL FILE  \\import REL FILE  \\q")
	}
	return false
}

// exportCSV writes a relation to a CSV file.
func (a *app) exportCSV(rel, path string) error {
	h, err := a.sess.Catalog().Relation(rel)
	if err != nil {
		return err
	}
	r, err := h.ReadAll()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := csvio.Export(f, r); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "exported %d tuples to %s\n", r.Len(), path)
	return nil
}

// importCSV appends the tuples of a CSV file to a relation; linguistic
// terms resolve through the catalog.
func (a *app) importCSV(rel, path string) error {
	h, err := a.sess.Catalog().Relation(rel)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := csvio.Import(f, h.Schema, a.sess.Catalog().Term)
	if err != nil {
		return err
	}
	if err := h.AppendAll(r); err != nil {
		return err
	}
	if err := h.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "imported %d tuples from %s\n", r.Len(), path)
	return nil
}

// printRelation renders a query answer with its membership degrees.
func (a *app) printRelation(rel *frel.Relation) {
	for i := range rel.Schema.Attrs {
		if i > 0 {
			fmt.Fprint(a.out, "  ")
		}
		fmt.Fprint(a.out, rel.Schema.Attrs[i].Name)
	}
	fmt.Fprintln(a.out, "  D")
	for _, t := range rel.Tuples {
		for i, v := range t.Values {
			if i > 0 {
				fmt.Fprint(a.out, "  ")
			}
			fmt.Fprint(a.out, v)
		}
		fmt.Fprintf(a.out, "  %.4g\n", t.D)
	}
	fmt.Fprintf(a.out, "(%d tuples)\n", rel.Len())
}
