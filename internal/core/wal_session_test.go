package core

import (
	"testing"

	"repro/internal/storage"
)

// TestSessionDurability drives the whole WAL stack through the statement
// layer: inserts, CHECKPOINT, a predicate DELETE, and DROP survive a
// close/reopen cycle — and inserts acknowledged after the last checkpoint
// replay from the log alone.
func TestSessionDurability(t *testing.T) {
	fs := storage.NewMemFS()
	open := func() *Session {
		t.Helper()
		s, err := OpenSessionOptions("db", SessionOptions{BufferPages: 8, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	sess := open()
	if _, err := execScript(sess, `
		CREATE TABLE W (ID NUMBER, NAME STRING);
		INSERT INTO W VALUES (1, 'a') DEGREE 0.5;
		INSERT INTO W VALUES (2, 'b');
		CREATE TABLE G (ID NUMBER);
		INSERT INTO G VALUES (7);
		CHECKPOINT;
		DELETE FROM W WHERE W.ID = 1;
		DROP TABLE G;
		INSERT INTO W VALUES (3, 'c') DEGREE 0.25;
	`); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	sess2 := open()
	defer sess2.Close()
	if names := sess2.Catalog().Relations(); len(names) != 1 || names[0] != "W" {
		t.Fatalf("relations after reopen: %v", names)
	}
	answers, err := execScript(sess2, `SELECT W.NAME FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	got := answers[0]
	if got.Len() != 2 {
		t.Fatalf("answer = %v", got.Tuples)
	}
	degrees := map[string]float64{}
	for _, tup := range got.Tuples {
		degrees[tup.Values[0].Str] = tup.D
	}
	if degrees["b"] != 1 || degrees["c"] != 0.25 {
		t.Errorf("degrees after replay = %v", degrees)
	}
}
