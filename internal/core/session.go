package core

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Session executes Fuzzy SQL statements against a catalog: DDL, inserts,
// term definitions, and queries (evaluated with the unnesting rewrites).
// It is the backend of the fuzzydb shell and of script-driven examples.
type Session struct {
	Env *Env
	cat *catalog.Catalog
	// forked marks a session created by Fork: it shares the catalog and
	// storage with its parent, owns only its evaluation environment, and
	// its Close releases the environment instead of the storage manager.
	forked bool

	// txn is the session's open explicit transaction, if any: the
	// snapshot every statement of the transaction reads under, and the
	// storage transaction opened lazily at the first write.
	txn *sessTxn
}

// sessTxn is the session-level state of one explicit transaction.
type sessTxn struct {
	snap *Snapshot
	stx  *storage.Tx // nil until the first write
}

// NewSession opens a session over the catalog.
func NewSession(cat *catalog.Catalog) *Session {
	return &Session{Env: NewEnv(cat), cat: cat}
}

// Catalog returns the session's catalog.
func (s *Session) Catalog() *catalog.Catalog { return s.cat }

// Fork returns a new session over the same catalog and storage with its
// own evaluation environment (sort caches, counters, knobs copied from
// the parent) and a fresh session-local term scope resolved before the
// shared catalog. Forked sessions are how the server gives each
// connection an isolated session: read-only statements of different forks
// may run concurrently, and DEFINE TERM through a fork stays private to
// it. A fork's sort-order cache counts against its parent's cache budget,
// so the budget bounds the database's cached orders, not each
// connection's. Closing a fork releases its cached orders, their budget
// share and sort temporaries, but leaves the shared storage open.
func (s *Session) Fork() *Session {
	ns := NewSession(s.cat)
	ns.Env.SortMemPages = s.Env.SortMemPages
	ns.Env.Parallelism = s.Env.Parallelism
	ns.Env.DisableJoinReorder = s.Env.DisableJoinReorder
	ns.Env.budget = s.Env.budget
	ns.Env.EnableTermScope()
	ns.forked = true
	return ns
}

// Forked reports whether the session was created by Fork.
func (s *Session) Forked() bool { return s.forked }

// Exec executes one statement. Queries return their answer relation;
// other statements return nil. Statements that change the catalog (DDL
// and term definitions) persist it, so the database survives reopening.
func (s *Session) Exec(stmt fsql.Statement) (*frel.Relation, error) {
	return s.ExecContext(context.Background(), stmt)
}

// ExecContext is Exec observing ctx: cancelling the context aborts a
// running query (its leaf scans check for cancellation periodically) and
// refuses to start further work.
func (s *Session) ExecContext(ctx context.Context, stmt fsql.Statement) (*frel.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *fsql.Select:
		p, err := s.Env.PlanQuery(st)
		if err != nil {
			return nil, err
		}
		return s.Eval(ctx, p, nil)

	case *fsql.Explain:
		if st.Analyze {
			_, stats, err := s.EvalAnalyze(ctx, st.Query)
			if err != nil {
				return nil, err
			}
			return planRelation(stats.Lines()), nil
		}
		p, err := s.Env.PlanQuery(st.Query)
		lines := []string{"strategy: " + PlanSummary(p, err)}
		if err == nil {
			lines = append(lines, p.Lines()...)
		}
		return planRelation(lines), nil

	case *fsql.Begin:
		return nil, s.beginTxn()

	case *fsql.Commit:
		return nil, s.commitTxn()

	case *fsql.Rollback:
		return nil, s.rollbackTxn()

	case *fsql.CreateTable:
		if err := s.barrier("CREATE TABLE"); err != nil {
			return nil, err
		}
		schema := frel.NewSchema(st.Name, st.Attrs...)
		if _, err := s.cat.CreateRelation(st.Name, schema); err != nil {
			return nil, err
		}
		return nil, s.cat.Save()

	case *fsql.DropTable:
		if err := s.barrier("DROP TABLE"); err != nil {
			return nil, err
		}
		if err := s.cat.DropRelation(st.Name); err != nil {
			return nil, err
		}
		return nil, s.cat.Save()

	case *fsql.CreateIndex:
		if err := s.barrier("CREATE INDEX"); err != nil {
			return nil, err
		}
		if _, err := s.cat.CreateIndex(st.Name, st.Table, st.Attr); err != nil {
			return nil, err
		}
		return nil, s.cat.Save()

	case *fsql.DropIndex:
		if err := s.barrier("DROP INDEX"); err != nil {
			return nil, err
		}
		if err := s.cat.DropIndex(st.Name); err != nil {
			return nil, err
		}
		return nil, s.cat.Save()

	case *fsql.Insert:
		return nil, s.insert(st)

	case *fsql.Delete:
		if err := s.barrier("DELETE"); err != nil {
			return nil, err
		}
		return nil, s.delete(st)

	case *fsql.Checkpoint:
		if err := s.barrier("CHECKPOINT"); err != nil {
			return nil, err
		}
		return nil, s.cat.Manager().Checkpoint()

	case *fsql.DefineTerm:
		// A forked session defines into its private term scope (the
		// per-connection vocabulary); only the base session writes the
		// shared, persisted dictionary.
		if s.Env.HasTermScope() {
			return nil, s.Env.DefineScopedTerm(st.Name, st.Value)
		}
		if err := s.barrier("DEFINE TERM"); err != nil {
			return nil, err
		}
		if err := s.cat.DefineTerm(st.Name, st.Value); err != nil {
			return nil, err
		}
		return nil, s.cat.Save()

	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// barrier rejects statements that cannot run inside an explicit
// transaction: they mutate shared structures in place (DDL, DELETE's
// rewrite, the shared term dictionary) or flush state a transaction may
// still roll back (CHECKPOINT). The caller runs them as barrier
// operations between transactions instead.
func (s *Session) barrier(what string) error {
	if s.txn != nil {
		return fmt.Errorf("core: %s cannot run inside a transaction", what)
	}
	return nil
}

// InTxn reports whether the session has an open explicit transaction.
func (s *Session) InTxn() bool { return s.txn != nil }

// beginTxn opens an explicit transaction: every following statement reads
// under the snapshot taken here, until COMMIT or ROLLBACK.
func (s *Session) beginTxn() error {
	if s.txn != nil {
		return fmt.Errorf("core: BEGIN inside an open transaction")
	}
	s.txn = &sessTxn{snap: s.Env.takeSnapshot()}
	return nil
}

// commitTxn makes the open transaction's writes durable and visible. A
// read-only transaction (no writes) just releases its snapshot.
func (s *Session) commitTxn() error {
	if s.txn == nil {
		return fmt.Errorf("core: COMMIT outside a transaction")
	}
	t := s.txn
	s.txn = nil
	if t.stx == nil {
		return nil
	}
	return t.stx.Commit()
}

// rollbackTxn discards the open transaction's writes.
func (s *Session) rollbackTxn() error {
	if s.txn == nil {
		return fmt.Errorf("core: ROLLBACK outside a transaction")
	}
	t := s.txn
	s.txn = nil
	if t.stx == nil {
		return nil
	}
	return t.stx.Rollback()
}

// abortTxn rolls back the open transaction after a failed write,
// preserving the original error.
func (s *Session) abortTxn(cause error) error {
	t := s.txn
	s.txn = nil
	if t != nil && t.stx != nil {
		return t.stx.Abort(cause)
	}
	return cause
}

// readSnapshot returns the snapshot the next read-only evaluation runs
// under: the open transaction's BEGIN-time snapshot, or a fresh committed
// cut per statement in auto-commit mode.
func (s *Session) readSnapshot() *Snapshot {
	if s.txn != nil {
		return s.txn.snap
	}
	return s.Env.takeSnapshot()
}

// Eval runs a planned query (see Env.Eval) under the session's read
// snapshot (see readSnapshot): the scan of every heap relation is bounded
// to one consistent committed cut, so the query never blocks behind a
// concurrent writer and never observes a torn or rolled-back transaction.
func (s *Session) Eval(ctx context.Context, p *plan.Plan, es *ExecStats) (*frel.Relation, error) {
	defer s.Env.setSnapshot(s.readSnapshot())()
	return s.Env.Eval(ctx, p, es)
}

// EvalNaive evaluates q by its nested semantics (see Env.EvalNaive) under
// the session's read snapshot.
func (s *Session) EvalNaive(ctx context.Context, q *fsql.Select, es *ExecStats) (*frel.Relation, error) {
	defer s.Env.setSnapshot(s.readSnapshot())()
	return s.Env.EvalNaive(ctx, q, es)
}

// EvalAnalyze plans q and runs it under the session's read snapshot,
// returning the answer with the run's EXPLAIN ANALYZE statistics.
func (s *Session) EvalAnalyze(ctx context.Context, q *fsql.Select) (*frel.Relation, *ExecStats, error) {
	p, err := s.Env.PlanQuery(q)
	if err != nil {
		return nil, nil, err
	}
	es := &ExecStats{}
	rel, err := s.Eval(ctx, p, es)
	if err != nil {
		return nil, nil, err
	}
	return rel, es, nil
}

// planRelation packs text lines into a single-column crisp relation, the
// shape EXPLAIN output flows through the shell's relation printer with.
func planRelation(lines []string) *frel.Relation {
	rel := frel.NewRelation(frel.NewSchema("", frel.Attribute{Name: "PLAN", Kind: frel.KindString}))
	for _, ln := range lines {
		rel.Append(frel.NewTuple(1, frel.Str(ln)))
	}
	return rel
}

func (s *Session) insert(st *fsql.Insert) error {
	h, err := s.cat.Relation(st.Table)
	if err != nil {
		return err
	}
	schema := h.Schema
	if len(st.Values) != len(schema.Attrs) {
		return fmt.Errorf("core: INSERT into %s supplies %d values, schema has %d attributes", st.Table, len(st.Values), len(schema.Attrs))
	}
	vals := make([]frel.Value, len(st.Values))
	for i, opd := range st.Values {
		attr := schema.Attrs[i]
		switch opd.Kind {
		case fsql.OpdNumber:
			if attr.Kind != frel.KindNumber {
				return fmt.Errorf("core: numeric value for string attribute %s", attr.Name)
			}
			vals[i] = frel.Num(opd.Num)
		case fsql.OpdString:
			if attr.Kind == frel.KindString {
				vals[i] = frel.Str(opd.Str)
				break
			}
			term, ok := s.Env.term(opd.Str)
			if !ok {
				return fmt.Errorf("core: %w %q for numeric attribute %s", ErrUnknownTerm, opd.Str, attr.Name)
			}
			vals[i] = frel.Num(term)
		default:
			return fmt.Errorf("core: INSERT values must be literals")
		}
	}
	tuple := frel.NewTuple(st.Degree, vals...)
	if s.txn != nil {
		return s.txnWrite(st.Table, h, tuple)
	}
	// An append outside a transaction commits on its own: the commit makes
	// it durable through the log; pages reach the heap file on eviction or
	// at the next checkpoint. Order indexes are not touched: the tuple
	// joins their tail (see catalog.CreateIndex).
	return h.Append(tuple)
}

// txnWrite appends a tuple on behalf of the open transaction. The first
// write to a relation validates the transaction's snapshot against the
// relation's committed state (first-writer-wins conflict detection: a
// concurrent transaction committed to the relation after this
// transaction's BEGIN aborts it) and upgrades the relation to live
// visibility, so later statements of the transaction read their own
// writes.
func (s *Session) txnWrite(name string, h *storage.HeapFile, tuple frel.Tuple) error {
	t := s.txn
	if !t.snap.Live(h) {
		sn, ok := t.snap.Lookup(h)
		if !ok || sn.Version != h.CommittedVersion() {
			return s.abortTxn(fmt.Errorf("core: %w: relation %q changed after the transaction began", ErrTxnConflict, name))
		}
	}
	if t.stx == nil {
		stx, err := s.cat.Manager().Begin()
		if err != nil {
			s.txn = nil
			return err
		}
		t.stx = stx
	}
	// Appends ride the manager's open transaction (t.stx).
	if err := h.Append(tuple); err != nil {
		return s.abortTxn(err)
	}
	t.snap.SetLive(h)
	return nil
}

// delete removes the tuples of a relation whose condition degree passes
// the statement's threshold: at least z for WITH D >= z, above z for
// WITH D > z, any positive degree by default. The surviving tuples are
// written, logged, into a fresh heap that the catalog swaps in.
func (s *Session) delete(st *fsql.Delete) error {
	h, err := s.cat.Relation(st.Table)
	if err != nil {
		return err
	}
	prog, err := s.Env.compileKernel(st.Where, h.Schema)
	if err != nil {
		return err
	}
	rel, err := h.ReadAll()
	if err != nil {
		return err
	}
	// Delete when the condition degree passes the threshold. The tuple's
	// own membership degree is not part of the condition, so the program
	// runs over the tuples at degree 1 (its result is min(D, condition)).
	batch := make([]frel.Tuple, rel.Len())
	for i, t := range rel.Tuples {
		batch[i] = frel.Tuple{Values: t.Values, D: 1}
	}
	degs := make([]float64, len(batch))
	prog.RunBatch(batch, degs)
	var kept []frel.Tuple
	for i, t := range rel.Tuples {
		if !st.Threshold.Admits(degs[i]) {
			kept = append(kept, t)
		}
	}
	return s.cat.ReplaceRelationContents(st.Table, kept)
}

// SessionOptions configures OpenSessionOptions.
type SessionOptions struct {
	// BufferPages is the buffer pool capacity in 8 KiB pages.
	BufferPages int
	// FS overrides the file system (fault-injection tests).
	FS storage.FS
}

// OpenSession opens (or creates) the database in dir: an existing
// catalog.json restores the saved relations and terms; a fresh directory
// starts empty with the paper's linguistic-term dictionary preloaded.
// Any write-ahead log left by a crash is replayed before the catalog
// opens.
func OpenSession(dir string, bufferPages int) (*Session, error) {
	return OpenSessionOptions(dir, SessionOptions{BufferPages: bufferPages})
}

// OpenSessionOptions is OpenSession with explicit options.
func OpenSessionOptions(dir string, opts SessionOptions) (*Session, error) {
	mgr, err := storage.NewManagerOptions(dir, storage.ManagerOptions{PoolPages: opts.BufferPages, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	cat, fresh, err := catalog.Open(mgr)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	if fresh {
		cat.DefinePaperTerms()
	}
	return NewSession(cat), nil
}

// Close releases the session's resources. A base session closes the
// shared file handles (heap files and the write-ahead log) without
// checkpointing: committed work replays from the log on the next open. A
// forked session only drops its cached sort temporaries — the shared
// storage stays open for its parent and siblings.
// A session closed with a transaction still open rolls it back first
// (a client that disconnects mid-transaction must not leave its writes
// behind).
func (s *Session) Close() error {
	var first error
	if s.txn != nil {
		first = s.rollbackTxn()
	}
	if s.forked {
		s.Env.ReleaseSortCache()
		return first
	}
	if err := s.cat.Manager().Close(); err != nil && first == nil {
		first = err
	}
	return first
}
