package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fsql"
	"repro/internal/storage"
)

func openTxnSession(t *testing.T) *Session {
	t.Helper()
	sess, err := OpenSessionOptions("db", SessionOptions{BufferPages: 8, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func countT(t *testing.T, s *Session) int {
	t.Helper()
	answers, err := execScript(s, `SELECT T.ID FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	return answers[0].Len()
}

// TestSessionTransactionLifecycle drives BEGIN/COMMIT/ROLLBACK through
// the statement layer: snapshot reads, own-writes visibility, barrier
// rejection, and the control-statement error cases.
func TestSessionTransactionLifecycle(t *testing.T) {
	sess := openTxnSession(t)
	if _, err := execScript(sess, `CREATE TABLE T (ID NUMBER); INSERT INTO T VALUES (1) DEGREE 0.5`); err != nil {
		t.Fatal(err)
	}

	// Control statements outside a transaction fail.
	if _, err := execScript(sess, `COMMIT`); err == nil {
		t.Error("COMMIT outside a transaction succeeded")
	}
	if _, err := execScript(sess, `ROLLBACK`); err == nil {
		t.Error("ROLLBACK outside a transaction succeeded")
	}

	if sess.InTxn() {
		t.Fatal("InTxn before BEGIN")
	}
	if _, err := execScript(sess, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if !sess.InTxn() {
		t.Fatal("InTxn false after BEGIN")
	}
	if _, err := execScript(sess, `BEGIN`); err == nil {
		t.Error("nested BEGIN succeeded")
	}

	// Writes are visible to the transaction, not to a forked reader.
	if _, err := execScript(sess, `INSERT INTO T VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if got := countT(t, sess); got != 2 {
		t.Errorf("transaction sees %d rows of its own table, want 2", got)
	}
	reader := sess.Fork()
	if got := countT(t, reader); got != 1 {
		t.Errorf("reader sees %d rows while the transaction is open, want 1", got)
	}

	// Barrier statements are rejected and leave the transaction open.
	for _, barrier := range []string{
		`CREATE TABLE X (A NUMBER)`,
		`DROP TABLE T`,
		`DELETE FROM T WHERE T.ID = 1`,
		`CHECKPOINT`,
	} {
		_, err := execScript(sess, barrier)
		if err == nil || !strings.Contains(err.Error(), "inside a transaction") {
			t.Errorf("barrier %q inside a transaction: err = %v", barrier, err)
		}
	}
	if !sess.InTxn() {
		t.Fatal("barrier rejection closed the transaction")
	}

	if _, err := execScript(sess, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if sess.InTxn() {
		t.Fatal("InTxn true after ROLLBACK")
	}
	if got := countT(t, sess); got != 1 {
		t.Errorf("%d rows after rollback, want 1", got)
	}

	// Commit publishes to other sessions.
	if _, err := execScript(sess, `BEGIN; INSERT INTO T VALUES (3); COMMIT`); err != nil {
		t.Fatal(err)
	}
	if got := countT(t, reader); got != 2 {
		t.Errorf("reader sees %d rows after commit, want 2", got)
	}

	// A read-only transaction commits without ever opening a storage
	// transaction.
	if _, err := execScript(sess, `BEGIN; SELECT T.ID FROM T; COMMIT`); err != nil {
		t.Fatal(err)
	}
}

// TestSessionTransactionConflict loses a first-writer-wins race: a
// transaction whose snapshot predates a concurrent commit to the same
// relation must fail its write with ErrTxnConflict and be rolled back.
func TestSessionTransactionConflict(t *testing.T) {
	sess := openTxnSession(t)
	if _, err := execScript(sess, `CREATE TABLE T (ID NUMBER)`); err != nil {
		t.Fatal(err)
	}
	loser := sess.Fork()
	if !loser.Forked() {
		t.Fatal("fork not marked as forked")
	}
	if _, err := execScript(loser, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `INSERT INTO T VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	_, err := execScript(loser, `INSERT INTO T VALUES (2)`)
	if !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("conflicting write error = %v, want ErrTxnConflict", err)
	}
	if loser.InTxn() {
		t.Error("conflict left the transaction open")
	}
	// The loser session survives and can retry.
	if _, err := execScript(loser, `BEGIN; INSERT INTO T VALUES (2); COMMIT`); err != nil {
		t.Fatalf("retry after conflict: %v", err)
	}
	if got := countT(t, sess); got != 2 {
		t.Errorf("%d rows after retry, want 2", got)
	}
}

// TestSessionEvalWrappers pins the snapshot-installing eval wrappers:
// Session.Eval collecting EXPLAIN ANALYZE statistics and Session.EvalNaive
// agree with the SELECT statement on the same query, inside and outside a
// transaction.
func TestSessionEvalWrappers(t *testing.T) {
	sess := openTxnSession(t)
	if _, err := execScript(sess, `
		CREATE TABLE T (ID NUMBER);
		INSERT INTO T VALUES (1) DEGREE 0.5;
		INSERT INTO T VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	q, err := fsql.ParseQuery(`SELECT T.ID FROM T WHERE T.ID > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	check := func(when string) {
		t.Helper()
		want, err := sess.ExecContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sess.Env.PlanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		analyzed, err := sess.Eval(ctx, p, &ExecStats{})
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(analyzed, 0) {
			t.Errorf("%s: Eval diverges from the SELECT statement", when)
		}
		naive, err := sess.EvalNaive(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(naive, 0) {
			t.Errorf("%s: EvalNaive diverges from the SELECT statement", when)
		}
	}

	check("auto-commit")
	if _, err := execScript(sess, `BEGIN; INSERT INTO T VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	check("inside a transaction")
	if _, err := execScript(sess, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
}
