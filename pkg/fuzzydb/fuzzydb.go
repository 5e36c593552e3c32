// Package fuzzydb is the public embedding API of the fuzzy relational
// database engine: a possibilistic database with Fuzzy SQL, linguistic
// terms, and automatic unnesting of nested fuzzy queries (the rewrites of
// "Efficient Processing of Nested Fuzzy SQL Queries").
//
// Open a database, execute Fuzzy SQL, read answers:
//
//	db, err := fuzzydb.Open("") // "" = throwaway temporary database
//	defer db.Close()
//	err = db.Exec(`CREATE TABLE F (NAME STRING, AGE NUMBER);
//	               INSERT INTO F VALUES ('Ann', 'about 35');`)
//	res, err := db.Query(`SELECT F.NAME FROM F WHERE F.AGE = 'middle age'`)
//	for i := 0; i < res.Len(); i++ {
//	    fmt.Println(res.Row(i), res.Degree(i))
//	}
//
// The package wraps the internal engine without exposing its types: rows
// come back as rendered strings plus a membership degree per tuple, either
// materialized (Result) or streamed (Rows).
//
// A DB is safe for concurrent use. Read-only statements (SELECT, EXPLAIN)
// run concurrently and read a consistent committed snapshot, so they
// never wait for a writer, even one with an open transaction. Writers (INSERT, and BEGIN/COMMIT/
// ROLLBACK transactions) serialize against each other behind a writer
// mutex; barrier operations (DDL, DELETE, shared DEFINE TERM,
// CHECKPOINT) exclude everything and are rejected inside transactions.
// For isolated contexts — a private linguistic vocabulary, an own sort
// cache, prepared statements, transactions — open a Session per
// goroutine or connection; the fuzzydbd network server maps each client
// connection to one. All entry points return *Error values carrying a
// stable ErrorCode, the same codes the wire protocol transports.
package fuzzydb

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frel"
)

// config collects the Open options.
type config struct {
	bufferPages int
	parallelism int
}

// Option customizes Open.
type Option func(*config) error

// WithBufferPoolPages sets the buffer pool capacity in 8 KiB pages. The
// default, 256 pages (2 MB), matches the paper's experimental setup.
func WithBufferPoolPages(pages int) Option {
	return func(c *config) error {
		if pages < 2 {
			return fmt.Errorf("fuzzydb: buffer pool needs at least 2 pages, got %d", pages)
		}
		c.bufferPages = pages
		return nil
	}
}

// WithParallelism sets the worker count for parallel query execution
// (morsel-scheduled join sweeps and sort run generation). 0, the default,
// uses all available CPUs; 1 forces serial execution. The count is the
// database's budget, not each statement's: statements of several sessions
// that run at the same time divide it, each getting at least one worker.
func WithParallelism(workers int) Option {
	return func(c *config) error {
		if workers < 0 {
			return fmt.Errorf("fuzzydb: negative parallelism %d", workers)
		}
		c.parallelism = workers
		return nil
	}
}

// DB is an open fuzzy database, safe for concurrent use: concurrent
// read-only statements share a reader lock, mutations take the writer
// lock (the engine is single-writer — see DESIGN.md §12). The DB's own
// methods run in a base session whose DEFINE TERM writes the shared,
// persisted dictionary; DB.Session opens isolated per-caller sessions.
type DB struct {
	// wmu is the writer mutex: the engine is single-writer, and every
	// mutating statement — an autocommitted INSERT, a transaction from its
	// first write through COMMIT/ROLLBACK, a barrier operation — holds it.
	// Snapshot readers never take it, so reads proceed while a writer's
	// transaction is open. Lock order: wmu before mu, always.
	wmu sync.Mutex
	// mu is the database readers-writer lock. Read-only statements and
	// writes (which snapshot isolation makes safe to run beside readers)
	// take RLock; barrier operations that mutate shared structures in place
	// (DDL, DELETE, CHECKPOINT, shared DEFINE TERM) and Close take Lock,
	// draining in-flight statements.
	mu      sync.RWMutex
	base    *Session
	dir     string
	ownsDir bool
	closed  bool

	// parallelism is the database's worker budget (WithParallelism; 0 means
	// GOMAXPROCS) and inFlight the number of statements, of all sessions,
	// executing or waiting for a lock right now. A statement's sweeps get
	// the budget divided by the statements in flight when it starts:
	// workers speed a statement up only on CPUs nobody else is using, and
	// a sweep that takes every CPU makes the short statements of other
	// sessions — an INSERT between two fsyncs — wait for it.
	parallelism int
	inFlight    atomic.Int32
}

// enter counts one statement of s as in flight (the prologue's done
// counts it out) and gives it its share of the worker budget. The caller
// holds s.mu, so a session's environment is its own to set; the base
// session's is also read by every Session() fork, so the database's own
// statements keep the configured count and only count as in flight.
func (s *Session) enter() {
	db := s.db
	budget := db.parallelism
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	share := budget / int(db.inFlight.Add(1))
	if share < 1 {
		share = 1
	}
	if s != db.base {
		s.sess.Env.Parallelism = share
	}
}

// Open opens (or creates) the database stored in dir. An existing
// database directory is recovered with its relations and terms; a fresh
// one starts empty with the paper's linguistic-term dictionary preloaded.
// The empty string opens a throwaway database in a temporary directory
// that Close removes.
func Open(dir string, opts ...Option) (*DB, error) {
	c := config{bufferPages: 256}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	ownsDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "fuzzydb-*")
		if err != nil {
			return nil, err
		}
		dir, ownsDir = d, true
	}
	sess, err := core.OpenSession(dir, c.bufferPages)
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	sess.Env.Parallelism = c.parallelism
	db := &DB{dir: dir, ownsDir: ownsDir, parallelism: c.parallelism}
	db.base = &Session{db: db, sess: sess}
	return db, nil
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Close releases the database's file handles, draining in-flight
// statements first (it takes the writer lock) and invalidating open
// sessions. A temporary database (opened with dir "") is deleted; a
// persistent one reopens with its committed contents, replayed from the
// write-ahead log. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.base.sess.Close()
	if db.ownsDir {
		if rerr := os.RemoveAll(db.dir); rerr != nil {
			return rerr
		}
	}
	return wrapErr(CodeInternal, err)
}

// Checkpoint flushes every relation to its heap file and truncates the
// write-ahead log. It serializes behind running statements and open
// transactions like any other barrier operation.
func (db *DB) Checkpoint() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed("database")
	}
	return wrapErr(CodeInternal, db.base.sess.Catalog().Manager().Checkpoint())
}

// Exec executes a Fuzzy SQL script (one or more ';'-separated statements:
// DDL, INSERT, DELETE, DEFINE TERM, SELECT), discarding query answers.
func (db *DB) Exec(sql string) error {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec observing ctx: cancellation aborts the running
// statement.
func (db *DB) ExecContext(ctx context.Context, sql string) error {
	return db.base.ExecContext(ctx, sql)
}

// Query evaluates one SELECT (through the unnesting rewrites) and returns
// its answer. An EXPLAIN [ANALYZE] SELECT answers with its PLAN rows, the
// lines the shell prints.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query observing ctx.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.base.QueryContext(ctx, sql)
}

// QueryRows evaluates one SELECT (or EXPLAIN, as for Query) and returns a
// streaming cursor over its answer (see Rows; Query returns the same
// answer materialized).
func (db *DB) QueryRows(ctx context.Context, sql string) (*Rows, error) {
	return db.base.QueryRows(ctx, sql)
}

// QueryNaive evaluates one SELECT by the nested execution semantics
// directly (the paper's baseline). It returns the same fuzzy relation as
// Query — useful for cross-checking — but nested queries cost a full
// inner evaluation per outer tuple.
func (db *DB) QueryNaive(sql string) (*Result, error) {
	q, err := parseQuery(sql)
	if err != nil {
		return nil, err
	}
	s := db.base
	rel, err := s.read(func() (*frel.Relation, error) {
		return s.sess.EvalNaive(context.Background(), q, nil)
	})
	if err != nil {
		return nil, err
	}
	return newResult(rel), nil
}

// Explain reports the unnesting strategy Query would use for the SELECT,
// e.g. "merge-join chain (type N query, Theorem 4.1)", or why it could
// not be planned.
func (db *DB) Explain(sql string) (string, error) {
	q, err := parseQuery(sql)
	if err != nil {
		return "", err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return "", errClosed("database")
	}
	return core.PlanSummary(db.base.sess.Env.PlanQuery(q)), nil
}

// PlanInfo is the logical plan the three-stage planner (AST → plan IR →
// unnesting rewrites → statistics-backed cost model) chose for a query.
type PlanInfo struct {
	// Strategy is the evaluation strategy in the paper's vocabulary
	// (e.g. "chain-join", "jx-anti-join").
	Strategy string
	// Note is the decision's reason: the theorem applied, or the cause
	// of a naive fallback.
	Note string
	// Rules lists the unnesting rewrite rules applied, in order (e.g.
	// "unnest-in", "unnest-scalar-agg"); empty for flat and naive plans.
	Rules []string
	// Tree is the rendered logical operator tree with per-node
	// cost/cardinality estimates — the same text EXPLAIN prints.
	Tree string
	// Rows and Cost are the estimated answer cardinality and total plan
	// cost (abstract units, roughly tuples touched).
	Rows, Cost float64
	// NaiveCost is the estimated cost of evaluating the query naively by
	// its nested semantics, for comparison against Cost.
	NaiveCost float64
}

// Plan plans the SELECT without executing it and returns the logical
// plan: strategy, applied unnesting rules, and the operator tree with the
// cost model's estimates.
func (db *DB) Plan(sql string) (*PlanInfo, error) {
	q, err := parseQuery(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, errClosed("database")
	}
	p, err := db.base.sess.Env.PlanQuery(q)
	if err != nil {
		return nil, wrapErr(CodePlan, err)
	}
	est := p.Root.Est()
	return &PlanInfo{
		Strategy:  fmt.Sprint(p.Strategy),
		Note:      p.Note,
		Rules:     append([]string(nil), p.Rules...),
		Tree:      strings.Join(p.Lines(), "\n"),
		Rows:      est.Rows,
		Cost:      est.Cost,
		NaiveCost: p.NaiveCost,
	}, nil
}
