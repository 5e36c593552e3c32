package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// stmt is one statement of a workload: what is sent, how it is issued, and
// what its sample and its answer are filed under. Every path (embedded,
// served, traced) consumes the same list, from passOf.
type stmt struct {
	sql   string
	args  []any  // values for the '?' of a prepared statement
	kind  string // statement class, or INSERT / TXN_INSERT / BEGIN / COMMIT
	group string // join, anti, agg, chain, write (autocommit INSERT) or txn
	style string // plain, prepared or cursor
	key   string // reads only: the key of the answer's fingerprint
}

// warmups are the untimed passes every caller starts with: one per call
// style the nested workloads alternate between. On nested_warm they fill
// the sort cache; on served_rw they read the data as set-up left it.
const warmups = 2

// styleOf alternates plain and prepared calls by pass.
func styleOf(pass int) string {
	if pass%2 != 0 {
		return "prepared"
	}
	return "plain"
}

func read(c class, outer, style, key string) stmt {
	return stmt{sql: c.sql(outer), kind: c.name, group: c.group, style: style, key: key}
}

// Statements of one served_rw pass besides its four reads.
const (
	rwAutocommit = 14 // prepared autocommit INSERTs
	rwInTxn      = 5  // INSERTs between BEGIN and COMMIT
)

// passOf returns the generator of a workload's statement list for one
// caller: pass -warmups, ..., -1 are the warm-ups, 0, 1, ... the timed
// passes. It must be called with consecutive pass numbers. The list
// depends on the seed and the worker only, never on time, so pass k is the
// same work on every run, path and commit.
func passOf(workloadName string, sz sizes, seed int64, worker int) func(pass int) []stmt {
	switch workloadName {
	case "served_small":
		// Every class as a plain Query (parsed and planned each time), as a
		// prepared statement (planned once, the plan replayed) and through a
		// one-row cursor; then, every other pass, one prepared INSERT with
		// '?' parameters. With an INSERT in every pass the writes would be
		// exactly the slowest tenth of the statements, and stmt_p90_ms would
		// sit on the edge between two populations.
		return func(pass int) []stmt {
			var out []stmt
			for _, style := range []string{"plain", "prepared", "cursor"} {
				for _, c := range smallClasses {
					out = append(out, stmt{sql: c.tmpl, kind: c.name, group: c.group, style: style, key: c.name})
				}
			}
			if pass%2 == 0 {
				out = append(out, stmt{sql: `INSERT INTO LOADLOG VALUES (?, ?)`, args: []any{worker*10000000 + pass + warmups, "load"},
					kind: "INSERT", group: "write", style: "prepared"})
			}
			return out
		}

	case "served_rw":
		// The caller owns table W<worker>: each timed pass appends to it
		// (autocommit INSERTs, then one transaction) and reads it back with
		// J, JX, JA and K3 against the shared S and T, so every read follows
		// a write. All callers draw the same rows, so pass k must give the
		// same answers to all of them. Each caller draws its own order of
		// the four reads: in a fixed order two connections fall into step,
		// each class always overlapping the same class on the other
		// connection, and the per-class medians depend on which step a run
		// happened to fall into.
		table := fmt.Sprintf("W%d", worker)
		rows := newRowSource(seed, sz.rw)
		order := rand.New(rand.NewSource(seed*31 + int64(worker)))
		insert := fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, table)
		return func(pass int) []stmt {
			var out []stmt
			if pass >= 0 {
				for i := 0; i < rwAutocommit; i++ {
					key, a, b := rows.next()
					out = append(out, stmt{sql: insert, args: []any{key, a, b}, kind: "INSERT", group: "write", style: "prepared"})
				}
				out = append(out, stmt{sql: "BEGIN", kind: "BEGIN", group: "txn", style: "plain"})
				for i := 0; i < rwInTxn; i++ {
					out = append(out, stmt{sql: rows.fuzzyInsert(table), kind: "TXN_INSERT", group: "txn", style: "plain"})
				}
				out = append(out, stmt{sql: "COMMIT", kind: "COMMIT", group: "txn", style: "plain"})
			}
			for _, i := range order.Perm(len(rwClasses)) {
				c := classByName(rwClasses[i])
				key := c.name // a warm-up reads what the gate read
				if pass >= 0 {
					key = fmt.Sprintf("%s@%d", c.name, pass)
				}
				out = append(out, read(c, table, styleOf(pass), key))
			}
			return out
		}
	}

	// nested_cold, nested_warm: the seven classes over R, alternating call
	// style by pass, then one INSERT into SIDE, which shares no sort order
	// with R, S, T, so writing it invalidates nothing the reads use.
	return func(pass int) []stmt {
		var out []stmt
		for _, c := range classes {
			out = append(out, read(c, "R", styleOf(pass), c.name))
		}
		return append(out, stmt{sql: fmt.Sprintf(`INSERT INTO SIDE VALUES (%d, 'pass')`, pass+warmups),
			kind: "INSERT", group: "write", style: "plain"})
	}
}

// rowSource draws the rows served_rw inserts. Like the generator's rows
// they take both join attributes from one of the relation's join centres,
// so a new row joins what an old row of that centre joins and every read
// class sees the writes.
type rowSource struct {
	rng     *rand.Rand
	centres int
	key     int
}

func newRowSource(seed int64, tuples int) *rowSource {
	centres := tuples / 7
	if centres < 1 {
		centres = 1
	}
	return &rowSource{rng: rand.New(rand.NewSource(seed)), centres: centres, key: 1000000}
}

// next returns a row of crisp values, for a prepared INSERT ('?' binds
// numbers and terms, not distributions).
func (r *rowSource) next() (key int, a, b float64) {
	r.key++
	c := float64(r.rng.Intn(r.centres)) * 1000
	return r.key, c + (r.rng.Float64()*2-1)*2.5, c + (r.rng.Float64()*2-1)*2.5
}

// fuzzyInsert returns an INSERT of a row of triangular values with a
// degraded degree, as text.
func (r *rowSource) fuzzyInsert(table string) string {
	key, a, b := r.next()
	return fmt.Sprintf(`INSERT INTO %s VALUES (%d, TRI(%g, %g, %g), TRI(%g, %g, %g)) DEGREE %.2f`,
		table, key, a-5, a, a+5, b-5, b, b+5, 0.5+0.5*r.rng.Float64())
}

// executor is the path statements travel: the embedded API, a client
// connection, or the tracer.
type executor interface {
	// do issues one statement and returns its answer (no rows for a write)
	// and the time from sending it to holding its last row.
	do(ctx context.Context, st stmt) (rows [][]string, degs []float64, d time.Duration, err error)
}

// runPasses is one caller's closed loop: the warm-ups, then the workload's
// fixed number of timed passes, each statement sent when the previous one
// has been answered. begin is called once, when the warm-ups are done, and
// returns the start of the measured time. The budget only cuts short a run
// that does not finish its work in time: it is checked between passes, so
// every class keeps the same number of samples. The first error ends the
// loop: after a broken connection or a dead server nothing more can
// succeed. It returns the number of timed passes completed.
func runPasses(ctx context.Context, ex executor, next func(int) []stmt, passes int, budget time.Duration,
	rec *recorder, ref map[string]string, begin func() time.Time) (int, error) {
	var start time.Time
	for pass := -warmups; pass < passes; pass++ {
		if pass == 0 {
			start = begin()
		}
		if pass > 0 && time.Since(start) >= budget {
			return pass, nil
		}
		for _, st := range next(pass) {
			rows, degs, d, err := ex.do(ctx, st)
			if err != nil {
				return pass, fmt.Errorf("pass %d, %s %s: %w", pass, st.kind, st.style, err)
			}
			if pass >= 0 {
				rec.add(st.kind, st.group, st.style, d)
			}
			switch {
			case st.key != "":
				rec.check(st.key, fingerprint(rows, degs), ref)
			case st.kind == "INSERT" || st.kind == "TXN_INSERT":
				rec.inserts++
			}
		}
	}
	return passes, nil
}

// writeTables are the tables a workload's INSERTs go to, each with a
// column to count its rows by, and the rows they hold together after
// set-up.
func writeTables(workloadName string, sz sizes) (tables [][2]string, initial int) {
	switch workloadName {
	case "served_small":
		return [][2]string{{"LOADLOG", "ID"}}, 0
	case "served_rw":
		return [][2]string{{"W0", "K"}, {"W1", "K"}}, 2 * (sz.rw / 7 * 7)
	}
	return [][2]string{{"SIDE", "ID"}}, 0
}

// checkWrites requires the workload's tables to hold every INSERT that was
// acknowledged, warm-ups included; the keys are distinct, so a projection
// counts rows.
func checkWrites(ctx context.Context, ex executor, workloadName string, sz sizes, rec *recorder) {
	tables, want := writeTables(workloadName, sz)
	want += rec.inserts
	got := 0
	for _, t := range tables {
		rows, _, _, err := ex.do(ctx, stmt{sql: fmt.Sprintf(`SELECT %[1]s.%[2]s FROM %[1]s`, t[0], t[1]), style: "plain", key: t[0]})
		if err != nil {
			rec.fail("counting %s: %v", t[0], err)
			return
		}
		got += len(rows)
	}
	if got != want {
		rec.fail("%v hold %d rows; set-up and the acknowledged INSERTs make %d", tables, got, want)
	} else {
		rec.attempted++
	}
}
