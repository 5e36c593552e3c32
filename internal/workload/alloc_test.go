package workload

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
	"repro/pkg/fuzzydb"
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
// Three legs serve the sorted inputs. "cached" reads the sort cache's
// orders, held as columns in sort order. "copied" reads the sorted heap
// copies the cache keeps for orders whose columns pass its budget (2
// pages of sort memory here), decoded straight into columns. "indexed" loads every order
// from an order index on R.A, R.B, S.A and S.B, with a tail of tuples
// appended after the indexes were built, so each load sorts the tail in; the
// cache is emptied before every run. Skipped under -race, which inflates
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

	t.Run("copied", func(t *testing.T) {
		sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 256, FS: storage.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for _, rel := range []*frel.Relation{r, s} {
			if err := sess.Env.LoadRelation(rel.Schema.Name, rel); err != nil {
				t.Fatal(err)
			}
		}
		sess.Env.SortMemPages = 2
		measure(t, sess.Env, false)
		if sess.Env.Work.CacheHits.Load() == 0 || sess.Catalog().Manager().LiveTemps() == 0 {
			t.Fatalf("%d cache hits over %d cached sorted copies, want hits on copies", sess.Env.Work.CacheHits.Load(), sess.Catalog().Manager().LiveTemps())
		}
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

// TestWarmReadAllocs is the allocation gate of a warm read through the
// public API: once its orders are cached, a type-J, JA or JA-COUNT
// statement over catalog heaps, rendered into a Result, allocates a
// bounded number of times whatever the size of its answer. The cached
// orders are columns in sort order, so a hit reads no page and decodes
// nothing; the sweep takes the columns without copying them, the
// group-aggregate sweep enters the aggregated column into one reused
// value set per morsel, the projection's column set is sized once, and
// the Result is one flat cell slice over one byte arena. A per-tuple or per-row allocation anywhere
// costs thousands at these sizes and trips it. At n = 8 000 the bytes
// allocated per answer row are bounded too, at 137: the sweep hands its
// survivors to the projection as columns, which deduplicates them in
// place, and the Result is rendered straight from the answer's distinct
// columns (106-110 bytes per row; 215-218 when the answer was copied into
// a relation before it was rendered). Warm EXPLAIN ANALYZE of
// the same statement shows every sort a cache hit that read no page, and
// no pool miss in the whole statement. Skipped under -race, which
// inflates allocation counts.
func TestWarmReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs, maxBytesPerRow = 1000, 137
	for _, n := range []int{2000, 8000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			sess, err := core.OpenSession(dir, 256)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range []string{"R", "S"} {
				rel, err := Generate(Params{Name: name, Tuples: n, TupleBytes: baseTupleBytes, Fanout: 7, Width: 5, Jitter: 0.5, Seed: int64(1 + i)})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Env.LoadRelation(name, rel); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Catalog().Save(); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			// A pool of 32 pages holds no sorted order of R or S: a cached
			// order read back through it would miss.
			db, err := fuzzydb.Open(dir, fuzzydb.WithBufferPoolPages(32))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, class := range []string{"J", "JA", "JA-COUNT"} {
				t.Run(class, func(t *testing.T) {
					maxBytes := 0.0
					if n == 8000 {
						maxBytes = maxBytesPerRow
					}
					warmReadAllocs(t, db, fmt.Sprintf(classQueries[class], " WITH D >= 0.5"), n/4, maxAllocs, maxBytes)
				})
			}
		})
	}
}

// warmReadAllocs runs sql twice to cache its orders, then requires at
// least minRows answer rows from at most maxAllocs allocations per run
// and, when maxBytesPerRow is not 0, at most that many bytes allocated
// per answer row (runtime.MemStats.TotalAlloc over three runs), and a
// warm EXPLAIN ANALYZE whose sorts are all cache hits that read no page,
// with no pool miss.
func warmReadAllocs(t *testing.T, db *fuzzydb.DB, sql string, minRows, maxAllocs int, maxBytesPerRow float64) {
	rows := 0
	query := func() {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Len()
	}
	query() // streams the sorts
	query() // admits the orders into the cache
	allocs := testing.AllocsPerRun(3, query)
	if rows < minRows {
		t.Fatalf("%d answer rows, want at least %d", rows, minRows)
	}
	if allocs > float64(maxAllocs) {
		t.Errorf("a warm read of %d rows allocated %.0f times, want <= %d", rows, allocs, maxAllocs)
	} else {
		t.Logf("%.0f allocations for %d answer rows", allocs, rows)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 3 {
		query()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / 3 / float64(rows)
	if maxBytesPerRow != 0 && perRow > maxBytesPerRow {
		t.Errorf("a warm read of %d rows allocated %.0f bytes per row, want <= %.0f", rows, perRow, maxBytesPerRow)
	} else {
		t.Logf("%.0f bytes allocated per answer row", perRow)
	}

	_, st, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolMisses != 0 {
		t.Errorf("warm EXPLAIN ANALYZE: %d pool misses, want 0:\n%s", st.PoolMisses, st)
	}
	sorts := 0
	var walk func(p *fuzzydb.PlanStats)
	walk = func(p *fuzzydb.PlanStats) {
		if p.Op == "sort" {
			sorts++
			if p.CacheHits != 1 || p.PageIOs != 0 {
				t.Errorf("warm sort %s: cache hits %d, page I/O %d, want a hit that read no page", p.Label, p.CacheHits, p.PageIOs)
			}
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(st.Plan)
	if sorts == 0 {
		t.Errorf("warm EXPLAIN ANALYZE has no sort node:\n%s", st)
	}
}

// TestWarmCacheIsPointerFree is the gate of the sort cache's form: the
// cached orders of all-numeric relations are columns of floats and
// trapezoids, which the garbage collector does not scan. A warm type-J
// statement caches the orders of R and S at n = 2 000 and n = 8 000; the
// scannable heap (/gc/scan/heap:bytes, after a collection) with the cache
// warm may exceed the one after ReleaseSortCache, the environment kept
// alive, by at most 16 KiB at either size, whatever n: the cache's slice
// headers and map, under 1 KiB here, not its tuples. Orders held as
// decoded frel.Values (about 200 scannable bytes per tuple) pass it at n
// = 2 000 already.
func TestWarmCacheIsPointerFree(t *testing.T) {
	const maxScan = 16 << 10
	q, err := fsql.ParseQuery(fmt.Sprintf(classQueries["J"], " WITH D >= 0.5"))
	if err != nil {
		t.Fatal(err)
	}
	scannable := func() int64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			t.Skip("the runtime does not report /gc/scan/heap:bytes")
		}
		return int64(sample[0].Value.Uint64())
	}
	for _, n := range []int{2000, 8000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var rels []*frel.Relation
			for i, name := range []string{"R", "S"} {
				rel, err := Generate(Params{Name: name, Tuples: n, TupleBytes: baseTupleBytes, Fanout: 7, Width: 5, Jitter: 0.5, Seed: int64(1 + i)})
				if err != nil {
					t.Fatal(err)
				}
				rels = append(rels, rel)
			}
			env := memEnv(t, rels...)
			for range 3 { // streams, admits, hits
				if _, err := evalQ(env, q); err != nil {
					t.Fatal(err)
				}
			}
			if env.Work.CacheHits.Load() == 0 {
				t.Fatal("the warm statement hit no cached order")
			}
			warm := scannable()
			env.ReleaseSortCache()
			released := scannable()
			runtime.KeepAlive(env) // the rest of the environment is live in both readings
			if d := warm - released; d > maxScan {
				t.Errorf("the warm cache adds %d scannable bytes (%.1f per tuple of R and S), want <= %d", d, float64(d)/float64(2*n), maxScan)
			} else {
				t.Logf("the warm cache adds %d scannable bytes", d)
			}
		})
	}
}
