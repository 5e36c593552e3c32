package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
)

// TestFoldedQueryAllocs is the end-to-end allocation gate of the folded
// sweeps: a whole statement over catalog heaps — plan, sorted inputs,
// kernel sweep with the answer's reduction folded in, duplicate
// elimination, threshold — over 10 000 outer tuples must stay at arena
// level, at most 0.05 allocations per outer tuple, for the join (N),
// anti-join (JX) and group-aggregate (JA) classes. A per-pair or
// per-tuple allocation anywhere on the path (a key string, a projected
// row, a map per group) costs at least one per tuple and trips it.
//
// Two legs serve the sorted inputs. "cached" reads the sort cache's
// sorted copies (heap scans). "indexed" loads every order from an order
// index on R.A, R.B, S.A and S.B, with a tail of tuples appended after
// the indexes were built, so each load also re-sorts; the cache is
// emptied before every run. Skipped under -race, which inflates
// allocation counts.
func TestFoldedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gen := func(name string, tuples int, seed int64) *frel.Relation {
		r, err := Generate(Params{Name: name, Tuples: tuples, TupleBytes: baseTupleBytes, Fanout: 7, Width: 5, Jitter: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r, s := gen("R", 10000, 1), gen("S", 10000, 2)
	outer := float64(r.Len())
	measure := func(t *testing.T, env *core.Env, release bool) {
		for _, class := range []string{"N", "JX", "JA"} {
			q, err := fsql.ParseQuery(fmt.Sprintf(classQueries[class], " WITH D >= 0.5"))
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			eval := func() {
				if release {
					env.ReleaseSortCache()
				}
				rel, err := evalQ(env, q)
				if err != nil {
					t.Fatal(err)
				}
				rows = rel.Len()
			}
			eval() // fills the sort-order cache
			allocs := testing.AllocsPerRun(3, eval)
			if rows == 0 {
				t.Fatalf("%s: empty answer", class)
			}
			if per := allocs / outer; per > 0.05 {
				t.Errorf("%s: %.0f allocations for %.0f outer tuples (%.4f per tuple), want <= 0.05", class, allocs, outer, per)
			} else {
				t.Logf("%s: %.0f allocations, %.4f per outer tuple, %d rows", class, allocs, per, rows)
			}
		}
	}

	t.Run("cached", func(t *testing.T) {
		measure(t, memEnv(t, r, s), false)
	})

	t.Run("indexed", func(t *testing.T) {
		sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 256, FS: storage.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		cat := sess.Catalog()
		for _, rel := range []*frel.Relation{r, s} {
			if err := sess.Env.LoadRelation(rel.Schema.Name, rel); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := execScript(sess, `
			CREATE INDEX r_a ON R (A);
			CREATE INDEX r_b ON R (B);
			CREATE INDEX s_a ON S (A);
			CREATE INDEX s_b ON S (B);
		`); err != nil {
			t.Fatal(err)
		}
		// The tail: tuples appended after the indexes were built.
		for i, name := range []string{"R", "S"} {
			h, err := cat.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.AppendAll(gen(name, 200, int64(3+i))); err != nil {
				t.Fatal(err)
			}
		}
		measure(t, sess.Env, true)
		if sess.Env.Work.IndexHits.Load() == 0 {
			t.Fatal("no order was loaded from an index")
		}
	})
}
