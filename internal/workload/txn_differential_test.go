package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/storage"
)

// diffTxnSeeds is the number of random cases per class for the
// transactional leg (disk-backed databases are costlier to set up than
// the in-memory envs of the main harness).
const diffTxnSeeds = 10

// TestDifferentialTransactionalLeg runs every workload class through
// explicit transactions on a WAL-backed database and checks the
// transaction machinery never changes answers:
//
//   - a query inside BEGIN equals the auto-commit answer (the snapshot
//     sees exactly the committed state);
//   - after BEGIN / writes / ROLLBACK the relations are bit-identical to
//     their pre-transaction contents — tuples, order, and degrees — and
//     the query answer is unchanged;
//   - after BEGIN / writes / COMMIT the answer equals a database that
//     applied the same writes by plain auto-commit statements.
func TestDifferentialTransactionalLeg(t *testing.T) {
	seeds := diffTxnSeeds
	if testing.Short() {
		seeds = 3
	}
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(seeds); seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				writes := []string{extraInsert(c.R, 0), extraInsert(c.R, 1), extraInsert(c.S, 2)}

				sess := openDiffDB(t, c)
				base := runQuery(t, sess, c.Query)

				// Snapshot leg: the same query inside a transaction.
				mustScript(t, sess, `BEGIN`)
				if got := runQuery(t, sess, c.Query); !base.Equal(got, 1e-9) {
					t.Fatalf("seed %d: query answer changed by merely being inside a transaction", seed)
				}

				// Rollback leg: write, roll back, compare bit-for-bit.
				preR := readRelation(t, sess, "R")
				preS := readRelation(t, sess, "S")
				for _, w := range writes {
					mustScript(t, sess, w)
				}
				if _, err := execScript(sess, c.Query); err != nil {
					t.Fatalf("seed %d: query over own writes: %v", seed, err)
				}
				mustScript(t, sess, `ROLLBACK`)
				if got := readRelation(t, sess, "R"); !preR.Equal(got, 0) {
					t.Fatalf("seed %d: R not bit-identical after rollback (%d vs %d tuples)", seed, got.Len(), preR.Len())
				}
				if got := readRelation(t, sess, "S"); !preS.Equal(got, 0) {
					t.Fatalf("seed %d: S not bit-identical after rollback (%d vs %d tuples)", seed, got.Len(), preS.Len())
				}
				if got := runQuery(t, sess, c.Query); !base.Equal(got, 1e-9) {
					t.Fatalf("seed %d: query answer changed by a rolled-back transaction", seed)
				}

				// Commit leg: the same writes inside a transaction...
				mustScript(t, sess, `BEGIN`)
				for _, w := range writes {
					mustScript(t, sess, w)
				}
				mustScript(t, sess, `COMMIT`)
				committed := runQuery(t, sess, c.Query)
				sess.Close()

				// ...must answer like plain auto-commit statements.
				ref := openDiffDB(t, c)
				for _, w := range writes {
					mustScript(t, ref, w)
				}
				want := runQuery(t, ref, c.Query)
				ref.Close()
				if !want.Equal(committed, 1e-9) {
					t.Fatalf("seed %d: committed-transaction answer differs from auto-commit\nauto-commit (%d tuples):\n%v\ntransaction (%d tuples):\n%v",
						seed, want.Len(), want, committed.Len(), committed)
				}
			}
		})
	}
}

// openDiffDB opens a fresh WAL-backed database over an in-memory file
// system holding the case's R and S.
func openDiffDB(t *testing.T, c *DiffCase) *core.Session {
	t.Helper()
	sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	for name, rel := range map[string]*frel.Relation{"R": c.R, "S": c.S} {
		if _, err := sess.Catalog().CreateRelation(name, rel.Schema); err != nil {
			t.Fatal(err)
		}
		h, err := sess.Catalog().Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// extraInsert builds a schema-shaped crisp INSERT for the transactional
// writes (value i keeps repeated inserts distinguishable).
func extraInsert(rel *frel.Relation, i int) string {
	vals := make([]string, len(rel.Schema.Attrs))
	for j, a := range rel.Schema.Attrs {
		if a.Kind == frel.KindString {
			vals[j] = fmt.Sprintf("'x%d'", i)
		} else {
			vals[j] = fmt.Sprintf("%d", 900+7*i)
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s) DEGREE 0.5", rel.Schema.Name, strings.Join(vals, ", "))
}

func mustScript(t *testing.T, s *core.Session, src string) {
	t.Helper()
	if _, err := execScript(s, src); err != nil {
		t.Fatal(err)
	}
}

func runQuery(t *testing.T, s *core.Session, q string) *frel.Relation {
	t.Helper()
	answers, err := execScript(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("query returned %d answers", len(answers))
	}
	return answers[0]
}

func readRelation(t *testing.T, s *core.Session, name string) *frel.Relation {
	t.Helper()
	h, err := s.Catalog().Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
