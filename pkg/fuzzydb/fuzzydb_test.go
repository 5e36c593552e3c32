package fuzzydb

import (
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

const datingData = `
	CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	CREATE TABLE M (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	INSERT INTO F VALUES (101, 'Ann',   'about 35',     'about 60K');
	INSERT INTO F VALUES (102, 'Ann',   'medium young', 'medium high');
	INSERT INTO F VALUES (103, 'Betty', 'middle age',   'high');
	INSERT INTO F VALUES (104, 'Cathy', 'about 50',     'low');
	INSERT INTO M VALUES (201, 'Allen', 24,           'about 25K');
	INSERT INTO M VALUES (202, 'Allen', 'about 50',   'about 40K');
	INSERT INTO M VALUES (203, 'Bill',  'middle age', 'high');
	INSERT INTO M VALUES (204, 'Carl',  'about 29',   'medium low');
`

const query2 = `
	SELECT F.NAME FROM F
	WHERE F.AGE = 'medium young' AND
	      F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')`

func openTemp(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open("", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestQuery2PaperAnswer runs the paper's Example 4.1 end to end through
// the public API: the answer must be {Ann: 0.7, Betty: 0.7}.
func TestQuery2PaperAnswer(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(datingData); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 1 || got[0] != "F.NAME" {
		t.Errorf("Columns = %v", got)
	}
	if res.Len() != 2 {
		t.Fatalf("Len = %d, want 2\n%s", res.Len(), res)
	}
	want := map[string]float64{"Ann": 0.7, "Betty": 0.7}
	for i := 0; i < res.Len(); i++ {
		name := res.Row(i)[0]
		if d, ok := want[name]; !ok || math.Abs(res.Degree(i)-d) > 1e-9 {
			t.Errorf("row %d: %s with degree %g, want %v", i, name, res.Degree(i), want)
		}
		delete(want, name)
	}

	// The naive nested evaluation must agree (Theorem 4.1).
	naive, err := db.QueryNaive(query2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(naive, 1e-9) {
		t.Errorf("unnested and naive answers differ:\n%s\nvs\n%s", res, naive)
	}
}

func TestExplain(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(datingData); err != nil {
		t.Fatal(err)
	}
	s, err := db.Explain(query2)
	if err != nil {
		t.Fatal(err)
	}
	if s == "" {
		t.Error("empty explain")
	}
}

// TestOptions exercises the option plumbing, including rejection of
// invalid values.
func TestOptions(t *testing.T) {
	db := openTemp(t, WithBufferPoolPages(64), WithParallelism(2))
	if err := db.Exec(`CREATE TABLE T (X NUMBER); INSERT INTO T VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT T.X FROM T;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("Len = %d", res.Len())
	}
	if _, err := Open("", WithBufferPoolPages(1)); err == nil {
		t.Error("WithBufferPoolPages(1) should fail")
	}
	if _, err := Open("", WithParallelism(-1)); err == nil {
		t.Error("WithParallelism(-1) should fail")
	}

}

// TestPersistence: a database opened over a real directory survives
// closing and reopening.
func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`CREATE TABLE P (X NUMBER); INSERT INTO P VALUES (7);`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT P.X FROM P`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0] != "7" {
		t.Errorf("reopened answer: %s", res)
	}
}

// TestTempDirRemovedOnClose: Open("") creates a directory that Close
// deletes; Close is idempotent and later calls fail cleanly.
func TestTempDirRemovedOnClose(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	dir := db.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("temp dir missing while open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("temp dir still exists after Close")
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := db.Exec(`SELECT X FROM T`); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Exec after Close: %v", err)
	}
	if _, err := db.Query(`SELECT X FROM T`); err == nil {
		t.Errorf("Query after Close should fail")
	}
}

func TestQueryContextCancelled(t *testing.T) {
	db := openTemp(t)
	if err := db.Exec(`CREATE TABLE T (X NUMBER); INSERT INTO T VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT T.X FROM T`); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if err := db.ExecContext(ctx, `SELECT T.X FROM T;`); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecContext err = %v, want context.Canceled", err)
	}
}

func TestQueryParseError(t *testing.T) {
	db := openTemp(t)
	if _, err := db.Query(`NOT SQL`); err == nil {
		t.Error("want parse error")
	}
}

// TestCheckpointAndReopen: CHECKPOINT (statement and method) truncates the
// log without losing data across a close/reopen cycle.
func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`CREATE TABLE C (X NUMBER);
		INSERT INTO C VALUES (1) DEGREE 0.5;
		INSERT INTO C VALUES (2);
		CHECKPOINT;
		INSERT INTO C VALUES (3);`); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT C.X FROM C`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("reopened with %d tuples, want 3", res.Len())
	}
	if res.Degree(0) != 0.5 {
		t.Errorf("degree lost across checkpoint: %g", res.Degree(0))
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err == nil {
		t.Errorf("Checkpoint after Close should fail")
	}
}

// TestNoWAL: the ablation switch still yields a working database.
func TestNoWAL(t *testing.T) {
	db := openTemp(t, WithNoWAL())
	if err := db.Exec(`CREATE TABLE T (X NUMBER); INSERT INTO T VALUES (4);`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT T.X FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("Len = %d", res.Len())
	}
	if err := db.Checkpoint(); err != nil {
		t.Errorf("Checkpoint without WAL should be a no-op, got %v", err)
	}
}

// TestUncommittedlessCrashRecovery: reopening a database directory whose
// process never checkpointed still sees every acknowledged INSERT, replayed
// from the write-ahead log.
func TestWALReplayOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`CREATE TABLE R (X NUMBER);
		INSERT INTO R VALUES (1); INSERT INTO R VALUES (2);`); err != nil {
		t.Fatal(err)
	}
	// Abandon the session without Close: the heap pages were never
	// flushed, so the reopened database must rebuild them from the log.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT R.X FROM R`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("replayed %d tuples, want 2", res.Len())
	}
	db.Close()
}
