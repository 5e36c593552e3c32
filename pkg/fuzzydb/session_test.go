package fuzzydb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func openSession(t *testing.T, db *DB) *Session {
	t.Helper()
	s, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSessionTermScope checks the session → database resolution order of
// linguistic terms: DEFINE TERM through a session is private to it, while
// DEFINE TERM through the DB writes the shared dictionary.
func TestSessionTermScope(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`
		CREATE TABLE F (NAME STRING, AGE NUMBER);
		INSERT INTO F VALUES ('Ann', 25);
		INSERT INTO F VALUES ('Old Joe', 70);
	`); err != nil {
		t.Fatal(err)
	}
	s1 := openSession(t, db)
	s2 := openSession(t, db)

	if err := s1.Exec(`DEFINE TERM 'young' AS TRAP(0, 0, 80, 90)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT F.NAME FROM F WHERE F.AGE = 'young'`
	count := func(res *Result, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	if got := count(s1.Query(q)); got != 2 {
		t.Errorf("session with private 'young': %d answers, want 2", got)
	}
	if got := count(s2.Query(q)); got != 1 {
		t.Errorf("sibling session: %d answers, want 1", got)
	}
	if got := count(db.Query(q)); got != 1 {
		t.Errorf("base: %d answers, want 1", got)
	}

	// A shared definition through the DB is visible to sessions.
	if err := db.Exec(`DEFINE TERM 'ancient' AS TRAP(60, 65, 120, 120)`); err != nil {
		t.Fatal(err)
	}
	if got := count(s2.Query(`SELECT F.NAME FROM F WHERE F.AGE = 'ancient'`)); got != 1 {
		t.Errorf("shared term through session: %d answers, want 1", got)
	}

	// An undefined term reports CodeTermUndefined.
	_, err := s2.Query(`SELECT F.NAME FROM F WHERE F.AGE = 'no such term'`)
	fe, ok := AsError(err)
	if !ok || fe.Code != CodeTermUndefined {
		t.Errorf("unknown term: err = %v, want CodeTermUndefined", err)
	}
}

// TestPreparedQueryPlanReuse prepares a parameterless nested query (its
// plan is cached at Prepare) and re-executes it across an INSERT: the
// cached plan must observe the new contents.
func TestPreparedQueryPlanReuse(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`
		CREATE TABLE R (K NUMBER, B NUMBER);
		CREATE TABLE S (B NUMBER);
		INSERT INTO R VALUES (1, 10);
		INSERT INTO S VALUES (10);
	`); err != nil {
		t.Fatal(err)
	}
	s := openSession(t, db)
	stmt, err := s.Prepare(`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 0 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	ctx := context.Background()
	res, err := stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("first execution: %d answers, want 1", res.Len())
	}
	if err := db.Exec(`INSERT INTO R VALUES (2, 10)`); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("re-execution after insert: %d answers, want 2", res.Len())
	}
}

// TestPreparedParams binds '?' parameters: numbers and strings, in
// queries and inserts, with arity and type errors reported.
func TestPreparedParams(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE T (NAME STRING, AGE NUMBER)`); err != nil {
		t.Fatal(err)
	}
	s := openSession(t, db)
	ctx := context.Background()

	ins, err := s.Prepare(`INSERT INTO T VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 0; i < 3; i++ {
		if err := ins.Exec(ctx, fmt.Sprintf("p%d", i), 20+10*i); err != nil {
			t.Fatal(err)
		}
	}

	sel, err := s.Prepare(`SELECT T.NAME FROM T WHERE T.AGE > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	res, err := sel.Query(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("AGE > 25: %d answers, want 2\n%s", res.Len(), res)
	}
	res, err = sel.Query(ctx, 35.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("AGE > 35: %d answers, want 1", res.Len())
	}

	if _, err := sel.Query(ctx); err == nil {
		t.Error("want arity error for missing argument")
	}
	if _, err := sel.Query(ctx, struct{}{}); err == nil {
		t.Error("want type error for struct argument")
	}
	if err := ins.Exec(ctx, "x"); err == nil {
		t.Error("want arity error for INSERT with one of two arguments")
	}
	if _, err := ins.Query(ctx, "x", 1); err == nil {
		t.Error("Query on a prepared INSERT should fail")
	}
}

// TestPreparedParamsRefuseNaN: a prepared statement's float64 argument
// is a number literal, so NaN and the infinities are refused as SQL text
// refuses them, and nothing is inserted.
func TestPreparedParamsRefuseNaN(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE T (NAME STRING, AGE NUMBER)`); err != nil {
		t.Fatal(err)
	}
	s := openSession(t, db)
	ctx := context.Background()
	ins, err := s.Prepare(`INSERT INTO T VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	sel, err := s.Prepare(`SELECT T.NAME FROM T WHERE T.AGE > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ins.Exec(ctx, "n", x); err == nil {
			t.Errorf("INSERT of %v: want error", x)
		}
		if _, err := sel.Query(ctx, x); err == nil {
			t.Errorf("AGE > %v: want error", x)
		}
	}
	res, err := s.Query(`SELECT T.NAME FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("%d rows inserted, want 0", res.Len())
	}
}

// TestPreparedParamsReachKernels pins what a '?' costs: nothing. A
// prepared statement binds its arguments before it plans, so parameters in
// the outer and in the inner block still run as fused filters feeding the
// merge-join sweep.
func TestPreparedParamsReachKernels(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
	`); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := db.Exec(fmt.Sprintf(`INSERT INTO R VALUES (%d, %d, %d); INSERT INTO S VALUES (%d, %d, %d)`,
			i, i%5, i%7, i, i%5, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	s := openSession(t, db)
	stmt, err := s.Prepare(`SELECT R.K FROM R WHERE R.A >= ? AND R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.K <= ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	work := s.sess.Env.Work
	res, err := stmt.Query(context.Background(), 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no answers: the check below would be vacuous")
	}
	// Each fused filter counts its whole input, the sweep its outer input.
	if kt := work.KernelTuples.Load(); kt <= 2*n {
		t.Errorf("KernelTuples = %d, want both fused filters (%d tuples) and the merge-join sweep", kt, 2*n)
	}
	if m := work.Morsels.Load(); m == 0 {
		t.Error("no morsel dispatched: the merge-join sweep did not run")
	}
}

// TestConcurrentSessions runs many read-only sessions against a shared
// database while a writer inserts, exercising the readers-writer locking
// (meaningful under -race).
func TestConcurrentSessions(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(datingData); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := db.Session()
			if err != nil {
				errc <- err
				return
			}
			defer s.Close()
			for i := 0; i < 5; i++ {
				res, err := s.Query(query2)
				if err != nil {
					errc <- err
					return
				}
				if !res.Equal(want, 1e-9) {
					errc <- fmt.Errorf("concurrent answer diverged:\n%s", res)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Rows with no bearing on query2's answer.
			if err := db.Exec(`INSERT INTO M VALUES (900, 'Zed', 99, 1)`); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSessionClosed checks the CodeClosed paths of sessions and
// statements, and that closing the DB invalidates open sessions.
func TestSessionClosed(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE T (X NUMBER)`); err != nil {
		t.Fatal(err)
	}
	s, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := s.Prepare(`SELECT T.X FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.Query(`SELECT T.X FROM T`); !isCode(err, CodeClosed) {
		t.Errorf("Query on closed session: %v", err)
	}
	if _, err := stmt.Query(context.Background()); !isCode(err, CodeClosed) {
		t.Errorf("Stmt.Query on closed session: %v", err)
	}

	s2, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Query(`SELECT T.X FROM T`); !isCode(err, CodeClosed) {
		t.Errorf("Query after DB close: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Errorf("session Close after DB close: %v", err)
	}
	if _, err := db.Session(); !isCode(err, CodeClosed) {
		t.Errorf("Session on closed DB: %v", err)
	}
}

func isCode(err error, code ErrorCode) bool {
	fe, ok := AsError(err)
	return ok && fe.Code == code
}

// TestTypedErrors checks the code classification at the public boundary.
func TestTypedErrors(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE T (X NUMBER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELEC nonsense`); !isCode(err, CodeParse) {
		t.Errorf("parse error: %v", err)
	}
	if err := db.Exec(`INSERT INTO T VALUES ('no such term')`); !isCode(err, CodeTermUndefined) {
		t.Errorf("unknown term on insert: %v", err)
	}
	if _, err := db.Query(`SELECT T.Y FROM T`); !isCode(err, CodeExec) {
		t.Errorf("unresolvable reference: %v", err)
	}
	// A cancelled context stays visible through the typed wrapper.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.ExecContext(ctx, `SELECT T.X FROM T`); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled exec: %v", err)
	}
	if CodeTermUndefined.String() != "term-undefined" || ErrorCode(99).String() != "code(99)" {
		t.Error("ErrorCode.String misrenders")
	}
	e := NewError(CodeProtocol, "bad frame")
	if e.Error() != "fuzzydb: bad frame" || e.Code != CodeProtocol {
		t.Errorf("NewError: %v", e)
	}
}

// TestRowsIterator drives the streaming cursor: Next/Scan/Degree, both
// scan target kinds, and its misuse errors.
func TestRowsIterator(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`
		CREATE TABLE T (NAME STRING, AGE NUMBER);
		INSERT INTO T VALUES ('Ann', 25);
		INSERT INTO T VALUES ('Joe', 'about 35');
	`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), `SELECT T.NAME, T.AGE FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "T.NAME" {
		t.Errorf("Columns = %v", cols)
	}
	var name string
	if err := rows.Scan(&name); err == nil {
		t.Error("Scan before Next should fail")
	}
	got := map[string]string{}
	for rows.Next() {
		var age string
		if err := rows.Scan(&name, &age); err != nil {
			t.Fatal(err)
		}
		if d := rows.Degree(); d != 1 {
			t.Errorf("Degree = %g", d)
		}
		got[name] = age
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if got["Ann"] != "25" || got["Joe"] != "TRAP(30,35,35,40)" {
		t.Errorf("scanned %v", got)
	}

	// Numeric scan targets: crisp values only.
	rows2, err := db.QueryRows(context.Background(), `SELECT T.AGE FROM T WHERE T.NAME = 'Ann'`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if !rows2.Next() {
		t.Fatal("no row")
	}
	var age float64
	if err := rows2.Scan(&age); err != nil || age != 25 {
		t.Errorf("Scan(*float64) = %g, %v", age, err)
	}
	if err := rows2.Scan(&age, &age); err == nil {
		t.Error("want column-count error")
	}
	var n int
	if err := rows2.Scan(&n); err == nil {
		t.Error("want unsupported-target error")
	}
	rows2.Close()
	if rows2.Next() {
		t.Error("Next after Close")
	}
	if err := rows2.Scan(&age); !isCode(err, CodeClosed) {
		t.Errorf("Scan after Close: %v", err)
	}
}

// TestStatementsShareTheWorkerBudget: a statement's sweeps get the
// database's worker budget divided by the statements in flight when it
// starts, at least one; the base session keeps the configured count (its
// environment is what Session() forks copy).
func TestStatementsShareTheWorkerBudget(t *testing.T) {
	db, err := Open("", WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var sessions []*Session
	for i := 0; i < 5; i++ {
		s, err := db.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}
	for i, want := range []int{4, 2, 1, 1, 1} {
		sessions[i].enter()
		if got := sessions[i].sess.Env.Parallelism; got != want {
			t.Errorf("statement %d in flight runs on %d workers, want %d", i+1, got, want)
		}
	}
	db.base.enter()
	if got := db.base.sess.Env.Parallelism; got != 4 {
		t.Errorf("base session runs on %d workers, want the configured 4", got)
	}
	db.inFlight.Add(-6) // all six statements leave
	if n := db.inFlight.Load(); n != 0 {
		t.Errorf("%d statements in flight after all left", n)
	}
	sessions[0].enter()
	defer db.inFlight.Add(-1)
	if got := sessions[0].sess.Env.Parallelism; got != 4 {
		t.Errorf("a statement alone runs on %d workers, want 4", got)
	}
}

// TestEveryStatementCountsInFlight: the database's own QueryNaive and
// ExplainAnalyzeContext, a session's queries and its prepared queries
// count as in flight while they wait for the database lock, like every
// other statement, so other sessions' sweeps share the worker budget with
// them.
func TestEveryStatementCountsInFlight(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE R (K NUMBER); INSERT INTO R VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT R.K FROM R`
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	planned, err := sess.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sess.Prepare(`SELECT R.K FROM R WHERE R.K = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	calls := map[string]func() error{
		"QueryNaive": func() error { _, err := db.QueryNaive(q); return err },
		"ExplainAnalyzeContext": func() error {
			_, _, err := db.ExplainAnalyzeContext(ctx, q)
			return err
		},
		"Session.Query":     func() error { _, err := sess.Query(q); return err },
		"Session.QueryRows": func() error { _, err := sess.QueryRows(ctx, q); return err },
		"Stmt.Query":        func() error { _, err := planned.Query(ctx); return err },
		"Stmt.QueryRows":    func() error { _, err := bound.QueryRows(ctx, 1); return err },
	}
	for name, call := range calls {
		db.mu.Lock()
		done := make(chan error, 1)
		go func() { done <- call() }()
		deadline := time.Now().Add(5 * time.Second)
		for db.inFlight.Load() != 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		n := db.inFlight.Load()
		db.mu.Unlock()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1 {
			t.Errorf("%s waiting for the database lock: %d statements in flight, want 1", name, n)
		}
		if n := db.inFlight.Load(); n != 0 {
			t.Errorf("%s: %d statements in flight after it returned", name, n)
		}
	}
}
