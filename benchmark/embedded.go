package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/pkg/fuzzydb"
)

// resultRows copies a materialized answer into the row/degree form the
// fingerprint works on.
func resultRows(res *fuzzydb.Result) ([][]string, []float64) {
	rows := make([][]string, res.Len())
	degs := make([]float64, res.Len())
	for i := range rows {
		rows[i] = res.Row(i)
		degs[i] = res.Degree(i)
	}
	return rows, degs
}

// embeddedExec issues statements through pkg/fuzzydb on one session: the
// in-process path of every workload. Cold, it opens the database for every
// statement and closes it after, so no sort order is cached and the buffer
// pool starts empty each time; a prepared statement is then prepared for
// its one use. The operating system's page cache stays warm either way:
// the files were just written.
type embeddedExec struct {
	dir   string
	cold  bool
	db    *fuzzydb.DB
	sess  *fuzzydb.Session
	stmts map[string]*fuzzydb.Stmt
}

func (e *embeddedExec) open() (err error) {
	if e.db, err = openDB(e.dir); err != nil {
		return err
	}
	if e.sess, err = e.db.Session(); err != nil {
		e.db.Close()
		return err
	}
	e.stmts = map[string]*fuzzydb.Stmt{}
	return nil
}

func (e *embeddedExec) close() error {
	if err := e.sess.Close(); err != nil {
		e.db.Close()
		return err
	}
	return e.db.Close()
}

func (e *embeddedExec) do(ctx context.Context, st stmt) ([][]string, []float64, time.Duration, error) {
	start := time.Now()
	if e.cold {
		if err := e.open(); err != nil {
			return nil, nil, 0, err
		}
	}
	res, err := e.issue(ctx, st)
	if e.cold {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}
	d := time.Since(start)
	if err != nil || res == nil {
		return nil, nil, d, err
	}
	rows, degs := resultRows(res)
	return rows, degs, d, nil
}

// issue sends the statement in its call style; in-process a cursor is a
// plain query, whose answer is materialized either way.
func (e *embeddedExec) issue(ctx context.Context, st stmt) (*fuzzydb.Result, error) {
	if st.style == "prepared" {
		ps := e.stmts[st.sql]
		if ps == nil {
			var err error
			if ps, err = e.sess.Prepare(st.sql); err != nil {
				return nil, err
			}
			e.stmts[st.sql] = ps
		}
		if st.key == "" {
			return nil, ps.Exec(ctx, st.args...)
		}
		return ps.Query(ctx, st.args...)
	}
	if st.key == "" {
		return nil, e.sess.ExecContext(ctx, st.sql)
	}
	return e.sess.QueryContext(ctx, st.sql)
}

// runEmbedded runs a workload's passes in this process through
// pkg/fuzzydb: the measured phase of nested_cold and nested_warm, and the
// in-process baseline the traced run compares a served workload with.
func runEmbedded(workloadName, dir string, sz sizes, seed int64, passes int, budget time.Duration, ref map[string]string) (*phaseResult, error) {
	ctx := context.Background()
	e := &embeddedExec{dir: dir, cold: workloadName == "nested_cold"}
	if !e.cold {
		if err := e.open(); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	start := time.Now()
	begin := func() time.Time { start = time.Now(); return start }
	done, err := runPasses(ctx, e, passOf(workloadName, sz, seed, 0), passes, budget, rec, ref, begin)
	elapsed := time.Since(start)
	if err != nil {
		rec.fail("%s: %v", workloadName, err)
	}
	checkWrites(ctx, e, workloadName, sz, rec)
	out := rec.result(elapsed, done)
	out.PeakRSSKB = peakRSSKB("self")

	// Leave the directory at rest: checkpointed and closed.
	if e.cold {
		if err := e.open(); err != nil {
			return nil, err
		}
	}
	if err := e.db.Checkpoint(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	if out.UserBytes, out.DiskBytes, err = atRest(dir); err != nil {
		return nil, err
	}
	return out, nil
}

// peakRSSKB reads VmHWM, the peak resident set size in KiB, of a process
// ("self" or a pid) from /proc; 0 where /proc has no such entry.
func peakRSSKB(pid string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// atRest measures a checkpointed, closed database: the encoded bytes of
// the tuples in its relations (what the user stored, without page, index
// or log overhead) and the bytes of its directory. Opening it first
// clears what the last process left behind: sort spills and cached sort
// orders stay on disk until the next open.
func atRest(dir string) (userBytes, diskBytes int64, err error) {
	sess, err := core.OpenSession(dir, poolPages)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range sess.Catalog().Relations() {
		h, err := sess.Catalog().Relation(name)
		if err != nil {
			sess.Close()
			return 0, 0, err
		}
		sc := h.Scan()
		for {
			rec, ok := sc.NextRaw()
			if !ok {
				break
			}
			userBytes += int64(len(rec))
		}
		err = sc.Err()
		sc.Close()
		if err != nil {
			sess.Close()
			return 0, 0, err
		}
	}
	if err := sess.Close(); err != nil {
		return 0, 0, err
	}
	diskBytes, err = dirBytes(dir)
	return userBytes, diskBytes, err
}

// naiveTolerance is how far a degree of the unnested evaluation may lie
// from the naive one: the repository's differential tests allow the same.
// The two are not bit-identical on JA, whose AVG sums the same members in
// a different order (differences around 1e-13); every other comparison
// the benchmark makes, between repetitions and between paths, is exact.
const naiveTolerance = 1e-9

// sameAnswer requires two answers to hold the same rows, in any order,
// with degrees within naiveTolerance.
func sameAnswer(a, b *fuzzydb.Result) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows against %d", a.Len(), b.Len())
	}
	byRow := func(res *fuzzydb.Result) map[string]float64 {
		m := make(map[string]float64, res.Len())
		for i := 0; i < res.Len(); i++ {
			m[strings.Join(res.Row(i), "\x1f")] = res.Degree(i)
		}
		return m
	}
	ma, mb := byRow(a), byRow(b)
	if len(ma) != a.Len() || len(mb) != b.Len() {
		return fmt.Errorf("duplicate rows in an answer")
	}
	for row, da := range ma {
		db, ok := mb[row]
		if !ok {
			return fmt.Errorf("row %q is in one answer only", row)
		}
		if math.Abs(da-db) > naiveTolerance {
			return fmt.Errorf("row %q has degree %v against %v", row, da, db)
		}
	}
	return nil
}

// gate is the correctness gate run once per invocation, before anything
// is timed. On a small replica drawn by the same generator and seed it
// requires the unnested evaluation of every class to equal the naive
// nested-loop evaluation: the same rows, degrees within naiveTolerance.
// Then it evaluates every
// class once on the workload's own data through the embedded API and
// returns the fingerprints every later answer must reproduce.
func gate(workloadName, dir, scratch string, sz sizes, seed int64) (*phaseResult, error) {
	rec := newRecorder()
	queries := map[string]string{}
	replica := dir
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	switch workloadName {
	case "nested_cold", "nested_warm":
		replica = scratch
		if err := loadGenerated(replica, nestedRels, sz.replica, seed); err != nil {
			return nil, err
		}
		for _, c := range classes {
			queries[c.name] = c.sql("R")
		}
	case "served_rw":
		replica = scratch
		if err := loadGenerated(replica, rwRels, sz.replica, seed); err != nil {
			return nil, err
		}
		for _, name := range rwClasses {
			queries[name] = classByName(name).sql("W0")
		}
	case "served_small": // small enough to be its own replica
		for _, c := range smallClasses {
			queries[c.name] = c.tmpl
		}
	}

	rdb, err := openDB(replica)
	if err != nil {
		return nil, err
	}
	for name, sql := range queries {
		fast, err := rdb.Query(sql)
		if err != nil {
			rec.fail("gate %s: %v", name, err)
			continue
		}
		naive, err := rdb.QueryNaive(sql)
		if err != nil {
			rec.fail("gate %s naive: %v", name, err)
			continue
		}
		if err := sameAnswer(fast, naive); err != nil {
			rec.fail("gate %s: unnested differs from naive: %v", name, err)
			continue
		}
		rec.attempted++
	}
	if err := rdb.Close(); err != nil {
		return nil, err
	}

	db, err := openDB(dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for name, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			rec.fail("reference %s: %v", name, err)
			continue
		}
		rec.attempted++
		rec.prints[name] = fingerprint(resultRows(res))
	}
	return rec.result(0, 0), nil
}
