package fuzzydb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/plan"
)

// Session is an isolated execution context over a shared database: its
// own evaluation environment (sort caches, counters) and a private
// linguistic-term scope resolved before the shared dictionary, so DEFINE
// TERM through a session customizes the vocabulary for that session
// alone. The network server gives every connection one Session; embedded
// callers open them for the same isolation.
//
// A Session serializes its own statements (it is safe for concurrent use,
// but calls queue), while read-only statements of different sessions run
// concurrently; mutations serialize behind the database writer lock.
type Session struct {
	db   *DB
	sess *core.Session

	mu     sync.Mutex // serializes this session's statements
	closed bool
	// holdsW records that this session's open transaction holds the
	// database writer mutex (acquired at the transaction's first write,
	// released when the transaction ends). Guarded by mu.
	holdsW bool
}

// Session opens a new session over the database. Sessions must be closed
// when done; closing the database invalidates them.
func (db *DB) Session() (*Session, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, errClosed("database")
	}
	return &Session{db: db, sess: db.base.sess.Fork()}, nil
}

// Statement lock classes. Reads take only the shared reader lock:
// snapshot isolation makes them safe beside a writer, so they never wait
// for one. Writes serialize against each other through the writer mutex
// but still run beside readers. Barrier operations mutate shared
// structures in place and exclude everything.
const (
	lockRead    = iota // mu.RLock
	lockWrite          // wmu + mu.RLock (logged appends)
	lockBarrier        // wmu + mu.Lock (in-place mutations)
)

// lockClass classifies st for sess: which locks its execution takes.
func lockClass(sess *core.Session, st fsql.Statement) int {
	switch st.(type) {
	case *fsql.Select, *fsql.Explain:
		return lockRead
	case *fsql.Begin, *fsql.Commit, *fsql.Rollback:
		// Transaction control itself only manipulates snapshots; the
		// writer mutex is managed by the first-write/transaction-end
		// bookkeeping in runLocked.
		return lockRead
	case *fsql.DefineTerm:
		if sess.Forked() {
			return lockRead // private term scope only
		}
		return lockBarrier
	case *fsql.Insert:
		return lockWrite
	}
	return lockBarrier // DDL, DELETE, CHECKPOINT
}

// run executes one parsed statement under the session and database locks.
func (s *Session) run(ctx context.Context, st fsql.Statement) (*core.Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runLocked(ctx, st)
}

// runLocked is run for callers already holding s.mu.
//
// Transactions and the writer mutex: a session's open transaction
// acquires wmu at its first write and keeps holding it across statements
// until the transaction ends (COMMIT, ROLLBACK, a conflict abort, or
// Close), so concurrent transactions' writes never interleave, while
// snapshot readers — including other sessions' read-only transactions —
// proceed throughout.
func (s *Session) runLocked(ctx context.Context, st fsql.Statement) (*core.Answer, error) {
	class := lockClass(s.sess, st)
	if class == lockBarrier && s.sess.InTxn() {
		// The engine rejects barrier statements inside a transaction;
		// run it under the locks the transaction already holds to
		// surface that error without self-deadlocking on wmu.
		class = lockRead
	}
	done, acquiredW, err := s.prologue(class)
	if done == nil {
		return nil, err
	}
	defer done()
	db := s.db
	defer func() {
		// Keep wmu across statements of a live open transaction;
		// otherwise release whatever this session holds. Covers the
		// whole ending spectrum: auto-commit, COMMIT, ROLLBACK,
		// conflict abort, statements after the database closed.
		if s.sess.InTxn() && !db.closed {
			s.holdsW = s.holdsW || acquiredW
			return
		}
		if s.holdsW || acquiredW {
			s.holdsW = false
			db.wmu.Unlock()
		}
	}()
	if err != nil {
		return nil, err
	}
	a, err := s.sess.Run(ctx, st)
	if err != nil {
		return nil, wrapErr(CodeExec, err)
	}
	return a, nil
}

// prologue takes what a statement of class needs, in the one order every
// statement follows; the caller holds s.mu. It refuses a closed session,
// counts the statement in flight, takes the writer mutex for a write or
// barrier (unless the session's open transaction holds it already), then
// the database lock, and refuses a closed database. Lock order: wmu
// before mu, always. done releases the database lock and counts the
// statement out; it is nil when nothing was taken. acquiredW reports a
// writer mutex taken here, which the caller releases.
func (s *Session) prologue(class int) (done func(), acquiredW bool, err error) {
	if s.closed {
		return nil, false, errClosed("session")
	}
	db := s.db
	s.enter()
	if class != lockRead && !s.holdsW {
		db.wmu.Lock()
		acquiredW = true
	}
	if class == lockBarrier {
		db.mu.Lock()
		done = func() { db.mu.Unlock(); db.inFlight.Add(-1) }
	} else {
		db.mu.RLock()
		done = func() { db.mu.RUnlock(); db.inFlight.Add(-1) }
	}
	if db.closed {
		return done, acquiredW, errClosed("database")
	}
	return done, acquiredW, nil
}

// read runs eval as a read-only statement of s, under s.mu and the read
// prologue, and wraps its error as an execution error.
func (s *Session) read(eval func() (*core.Answer, error)) (*core.Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	done, _, err := s.prologue(lockRead)
	if done == nil {
		return nil, err
	}
	defer done()
	if err != nil {
		return nil, err
	}
	a, err := eval()
	if err != nil {
		return nil, wrapErr(CodeExec, err)
	}
	return a, nil
}

// Begin opens an explicit transaction on the session: until Commit or
// Rollback, every read sees the consistent committed snapshot taken here
// (plus the transaction's own writes), and the writes of other
// transactions neither appear nor block it. A concurrent committed write
// to a relation this transaction then writes aborts it with
// CodeTxnConflict (first-writer-wins); retry from Begin.
func (s *Session) Begin(ctx context.Context) error {
	_, err := s.run(ctx, &fsql.Begin{})
	return err
}

// Commit makes the open transaction's writes durable and visible to
// statements and snapshots that follow.
func (s *Session) Commit(ctx context.Context) error {
	_, err := s.run(ctx, &fsql.Commit{})
	return err
}

// Rollback discards the open transaction's writes; the database is left
// as if the transaction never ran.
func (s *Session) Rollback(ctx context.Context) error {
	_, err := s.run(ctx, &fsql.Rollback{})
	return err
}

// InTxn reports whether the session has an open explicit transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.InTxn()
}

// ExecContext executes a Fuzzy SQL script (one or more ';'-separated
// statements), discarding query answers. Cancelling ctx aborts the
// running statement and skips the rest.
func (s *Session) ExecContext(ctx context.Context, sql string) error {
	stmts, err := fsql.ParseScript(sql)
	if err != nil {
		return wrapErr(CodeParse, err)
	}
	for _, st := range stmts {
		if _, err := s.run(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

// Exec is ExecContext with a background context.
func (s *Session) Exec(sql string) error { return s.ExecContext(context.Background(), sql) }

// QueryContext evaluates one SELECT (through the unnesting rewrites) and
// returns its materialized answer. An EXPLAIN [ANALYZE] SELECT answers
// with its PLAN rows, the lines the shell prints.
func (s *Session) QueryContext(ctx context.Context, sql string) (*Result, error) {
	q, err := parseRead(sql)
	if err != nil {
		return nil, err
	}
	a, err := s.run(ctx, q)
	if err != nil {
		return nil, err
	}
	return newResult(a), nil
}

// Query is QueryContext with a background context.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryRows evaluates one SELECT (or EXPLAIN, as for QueryContext) and
// returns a streaming cursor over its answer.
func (s *Session) QueryRows(ctx context.Context, sql string) (*Rows, error) {
	q, err := parseRead(sql)
	if err != nil {
		return nil, err
	}
	a, err := s.run(ctx, q)
	if err != nil {
		return nil, err
	}
	return newRows(a), nil
}

// Close releases the session's cached sort temporaries, rolling back an
// open transaction first (a client that disconnects mid-transaction
// leaves nothing behind). The shared database stays open; Close is
// idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer func() {
		if s.holdsW {
			s.holdsW = false
			s.db.wmu.Unlock()
		}
	}()
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if s.db.closed {
		// The database released the storage already; nothing left to drop.
		return nil
	}
	return wrapErr(CodeInternal, s.sess.Close())
}

// Stmt is a prepared statement: parsed once, executed many times.
// Parameters are written '?' and bound positionally at execution. A
// parameterless SELECT is also planned once at Prepare — re-executions
// replay the recorded plan (sources and terms still re-resolve per run,
// so answers follow later inserts).
type Stmt struct {
	s       *Session
	text    string
	st      fsql.Statement
	sel     *fsql.Select // non-nil when the statement is a query
	nparams int
	cached  *plan.Plan // replayable plan, for parameterless queries
	closed  bool
}

// Prepare parses one statement (its trailing ';' is optional) and, for a
// parameterless query, plans it. The returned statement is bound to this
// session: it sees the session's term scope and serializes with its other
// statements.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	st, err := fsql.ParseStatement(sql)
	if err != nil {
		return nil, wrapErr(CodeParse, err)
	}
	stmt := &Stmt{s: s, text: sql, st: st, nparams: fsql.NumParams(st)}
	if sel, ok := st.(*fsql.Select); ok {
		stmt.sel = sel
		if stmt.nparams == 0 {
			if _, err := s.read(func() (*core.Answer, error) {
				p, err := s.sess.Env.PlanQuery(sel)
				stmt.cached = p
				return nil, wrapErr(CodePlan, err)
			}); err != nil {
				return nil, err
			}
		}
	}
	return stmt, nil
}

// Text returns the statement's Fuzzy SQL source.
func (st *Stmt) Text() string { return st.text }

// IsQuery reports whether executing the statement returns rows: a SELECT
// returns its answer, an EXPLAIN [ANALYZE] SELECT its PLAN rows.
func (st *Stmt) IsQuery() bool {
	_, explain := st.st.(*fsql.Explain)
	return st.sel != nil || explain
}

// NumParams returns the number of '?' parameters the statement takes.
func (st *Stmt) NumParams() int { return st.nparams }

// Query executes a prepared SELECT with the given arguments (one per '?',
// numbers or strings) and returns its materialized answer. A prepared
// EXPLAIN [ANALYZE] SELECT answers with its PLAN rows, as
// Session.Query does.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Result, error) {
	a, err := st.query(ctx, args)
	if err != nil {
		return nil, err
	}
	return newResult(a), nil
}

// QueryRows is Query returning a streaming cursor.
func (st *Stmt) QueryRows(ctx context.Context, args ...any) (*Rows, error) {
	a, err := st.query(ctx, args)
	if err != nil {
		return nil, err
	}
	return newRows(a), nil
}

func (st *Stmt) query(ctx context.Context, args []any) (*core.Answer, error) {
	if !st.IsQuery() {
		return nil, st.errorf(CodeExec, "is not a query")
	}
	if st.sel == nil {
		return st.run(ctx, args) // EXPLAIN [ANALYZE]: its PLAN rows
	}
	ops, err := st.bind(args)
	if err != nil {
		return nil, err
	}
	s := st.s
	return s.read(func() (*core.Answer, error) {
		if st.closed {
			return nil, errClosed("statement")
		}
		p := st.cached
		if p == nil {
			q, err := fsql.BindQuery(st.sel, ops)
			if err != nil {
				return nil, err
			}
			if p, err = s.sess.Env.PlanQuery(q); err != nil {
				return nil, err
			}
		}
		return s.sess.RunPlan(ctx, p, nil)
	})
}

// bind converts the arguments of one execution, which must be one per
// '?' of the statement.
func (st *Stmt) bind(args []any) ([]fsql.Operand, error) {
	ops, err := bindArgs(args)
	if err != nil {
		return nil, st.errorf(CodeExec, "%v", err)
	}
	if len(ops) != st.nparams {
		return nil, st.errorf(CodeExec, "takes %d parameters, got %d arguments", st.nparams, len(ops))
	}
	return ops, nil
}

// errorf returns an error whose message names the prepared statement's
// kind in SQL terms: "prepared INSERT takes 3 parameters, ...".
func (st *Stmt) errorf(code ErrorCode, format string, args ...any) error {
	return &Error{Code: code, Msg: "prepared " + statementKind(st.st) + " " + fmt.Sprintf(format, args...)}
}

// statementKind names the kind of a statement as SQL spells it: the
// leading keywords of its rendering ("INSERT", "CREATE TABLE", "EXPLAIN
// ANALYZE").
func statementKind(st fsql.Statement) string {
	words := strings.Fields(st.String())
	n := 1
	switch {
	case words[0] == "CREATE" || words[0] == "DROP" || words[0] == "DEFINE",
		words[0] == "EXPLAIN" && words[1] == "ANALYZE":
		n = 2
	}
	return strings.Join(words[:n], " ")
}

// Exec executes a prepared non-query statement (INSERT, DELETE, DDL) with
// the given arguments. Executing a prepared query this way evaluates it
// and discards the answer.
func (st *Stmt) Exec(ctx context.Context, args ...any) error {
	_, err := st.run(ctx, args)
	return err
}

// run binds args into the statement and runs it on the statement path.
func (st *Stmt) run(ctx context.Context, args []any) (*core.Answer, error) {
	ops, err := st.bind(args)
	if err != nil {
		return nil, err
	}
	bound := st.st
	if st.nparams > 0 {
		if bound, err = fsql.BindStatement(st.st, ops); err != nil {
			return nil, st.errorf(CodeExec, "%v", err)
		}
	}
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.closed {
		return nil, errClosed("statement")
	}
	return s.runLocked(ctx, bound)
}

// Close releases the prepared statement. It is idempotent.
func (st *Stmt) Close() error {
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	st.closed = true
	st.cached = nil
	return nil
}

// bindArgs converts Go argument values to Fuzzy SQL literal operands. A
// float64 must be finite, as a number literal of SQL text is.
func bindArgs(args []any) ([]fsql.Operand, error) {
	if len(args) == 0 {
		return nil, nil
	}
	ops := make([]fsql.Operand, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			ops[i] = fsql.NumOperand(fuzzy.Crisp(float64(v)))
		case int64:
			ops[i] = fsql.NumOperand(fuzzy.Crisp(float64(v)))
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("argument %d: %v is not a finite number", i, v)
			}
			ops[i] = fsql.NumOperand(fuzzy.Crisp(v))
		case string:
			ops[i] = fsql.StrOperand(v)
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T (want a number or string)", i, a)
		}
	}
	return ops, nil
}

// parseRead parses one statement Query answers: a SELECT, or an EXPLAIN
// [ANALYZE] SELECT whose answer is its plan.
func parseRead(sql string) (fsql.Statement, error) {
	st, err := fsql.ParseStatement(sql)
	if err != nil {
		return nil, wrapErr(CodeParse, err)
	}
	switch st.(type) {
	case *fsql.Select, *fsql.Explain:
		return st, nil
	}
	return nil, &Error{Code: CodeParse, Msg: fmt.Sprintf("fsql: expected SELECT or EXPLAIN, got %q", strings.Fields(sql)[0])}
}

// parseQuery parses one SELECT, tolerating a trailing ';'.
func parseQuery(sql string) (*fsql.Select, error) {
	q, err := fsql.ParseQuery(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	if err != nil {
		return nil, wrapErr(CodeParse, err)
	}
	return q, nil
}
