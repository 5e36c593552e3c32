package workload

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
)

// indexDiffSeeds is the number of random cases per class for the
// with/without-index differential leg. Each case opens two disk-backed
// databases, so the sweep is smaller than the in-memory harness.
const indexDiffSeeds = 40

// evalDiskCase loads the case's relations into a fresh disk-backed
// database — optionally with persistent order indexes on every join
// attribute — evaluates the query through the full session path, and
// returns the answer together with the number of index-served sorts.
func evalDiskCase(t *testing.T, c *DiffCase, indexed bool) (*frel.Relation, int64) {
	t.Helper()
	sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 16, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cat := sess.Catalog()
	for _, rel := range []*frel.Relation{c.R, c.S} {
		h, err := cat.CreateRelation(rel.Schema.Name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if indexed {
		// Index every attribute the class queries order by: the linking
		// attribute B and the correlation attribute A of both relations.
		if _, err := execScript(sess, `
			CREATE INDEX r_a ON R (A);
			CREATE INDEX r_b ON R (B);
			CREATE INDEX s_a ON S (A);
			CREATE INDEX s_b ON S (B);
		`); err != nil {
			t.Fatal(err)
		}
	}
	q, err := fsql.ParseQuery(c.Query)
	if err != nil {
		t.Fatalf("parse %q: %v", c.Query, err)
	}
	sess.Env.Work = exec.NewOpStats("total", "")
	got, err := sess.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("eval %q: %v", c.Query, err)
	}
	return got, sess.Env.Work.IndexHits.Load()
}

// TestDifferentialIndexes is the index-equivalence leg of the harness:
// for every nesting class, evaluating each randomized case through a
// disk-backed database with persistent order indexes on the join
// attributes must return answers bit-identical — tuples and membership
// degrees at zero tolerance — to the same database without indexes.
// The indexed runs must actually be served from the indexes (nonzero
// index hits per class) or the comparison would be vacuous.
func TestDifferentialIndexes(t *testing.T) {
	seeds := indexDiffSeeds
	if testing.Short() {
		seeds = 8
	}
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			var hits int64
			for seed := int64(0); seed < int64(seeds); seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				plain, plainHits := evalDiskCase(t, c, false)
				if plainHits != 0 {
					t.Fatalf("seed %d: unindexed run reported %d index hits", seed, plainHits)
				}
				withIdx, idxHits := evalDiskCase(t, c, true)
				hits += idxHits
				if !plain.Equal(withIdx, 0) {
					t.Fatalf("seed %d: class %s indexed answer differs on %s\nunindexed (%d tuples):\n%v\nindexed (%d tuples):\n%v",
						seed, class, c.Query,
						plain.Len(), plain, withIdx.Len(), withIdx)
				}
			}
			if hits == 0 {
				t.Fatalf("class %s: no query was index-served across %d seeds", class, seeds)
			}
		})
	}
}
