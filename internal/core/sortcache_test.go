package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
)

// cacheRel builds a small relation with the R(K, A, B) shape the analyze
// query joins on.
func cacheRel(name string, n int, seed int64) *frel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := frel.NewRelation(frel.NewSchema(name,
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i := 0; i < n; i++ {
		r.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Crisp(float64(rng.Intn(20))),
			frel.Crisp(float64(rng.Intn(20)))))
	}
	return r
}

// freshAnswer evaluates q on a brand-new environment over the given
// relations — the ground truth a cached evaluation must match.
func freshAnswer(t *testing.T, q *fsql.Select, r, s *frel.Relation) *frel.Relation {
	t.Helper()
	rel, err := evalQ(memEnv(r, s), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestSortCacheRepeatedQueryHits is the headline property: re-running a
// query on unmodified relations re-sorts nothing once its orders are
// admitted (on their second request) — the EXPLAIN ANALYZE sort nodes
// report cache hits with zero comparisons and zero runs.
func TestSortCacheRepeatedQueryHits(t *testing.T) {
	env := analyzeEnv(t, 400, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	es1 := &ExecStats{}
	first, err := evalQ(env, q, es1)
	if err != nil {
		t.Fatal(err)
	}
	if hits := env.Work.CacheHits.Load(); hits != 0 {
		t.Fatalf("first run reported %d cache hits, want 0", hits)
	}
	misses := env.Work.CacheMisses.Load()
	if misses == 0 {
		t.Fatal("first run sorted no base relation")
	}
	if _, err := evalQ(env, q, &ExecStats{}); err != nil {
		t.Fatal(err)
	}
	if got := env.Work.CacheMisses.Load(); got != 2*misses {
		t.Fatalf("second run admitted %d orders, want the %d the first run sorted", got-misses, misses)
	}

	es3 := &ExecStats{}
	third, err := evalQ(env, q, es3)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(third, 1e-9) {
		t.Fatalf("cached evaluation changed the answer:\nfirst:\n%v\nthird:\n%v", first, third)
	}
	if got := env.Work.CacheMisses.Load(); got != 2*misses {
		t.Fatalf("third run missed the cache: misses %d -> %d", 2*misses, got)
	}
	if hits := env.Work.CacheHits.Load(); hits != misses {
		t.Fatalf("third run hits = %d, want one per first-run miss (%d)", hits, misses)
	}
	// The third run's sort nodes must show a hit and no sorting work.
	snap := es3.Plan()
	sortNode := snap.Find("sort")
	if sortNode == nil {
		t.Fatalf("no sort node in:\n%s", snap.Render())
	}
	if sortNode.CacheHits != 1 {
		t.Fatalf("sort node CacheHits = %d, want 1:\n%s", sortNode.CacheHits, snap.Render())
	}
	if sortNode.Comparisons != 0 || sortNode.SortRuns != 0 || sortNode.SpillBytes != 0 {
		t.Fatalf("cached sort still did work: %+v", sortNode)
	}
	// And the first run's were misses that did sort.
	if n := es1.Plan().Find("sort"); n.CacheMisses != 1 || n.Comparisons == 0 {
		t.Fatalf("first-run sort node not a sorting miss: %+v", n)
	}
}

// TestSortCacheAdmitsOnSecondRequest is the admission contract of orders
// whose columns pass the cache budget: the first request for an
// order at a heap version streams the sort's final merge and writes no
// sorted copy (every temporary is gone once the statement ends), the
// second writes the copy and caches it, the third is a hit that compares
// nothing, and an append to a relation starts its orders' sequence over
// while the other relation's orders keep hitting. Every answer equals a
// fresh environment's.
func TestSortCacheAdmitsOnSecondRequest(t *testing.T) {
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	// 1 400 tuples of R or S take 146 KB as columns, past the 128 KB budget
	// of 2 pages of sort memory, and each writes runs before its last
	// batch.
	env := analyzeEnv(t, 1400, 1)
	env.SortMemPages = 2
	mgr := env.cat.Manager()
	want, err := env.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// step runs q and checks the per-relation hits and misses, the number
	// of sorted copies cached and the temporaries left live.
	step := func(name string, wantCounts map[string][2]int64, cached int) map[string]int64 {
		t.Helper()
		es := &ExecStats{}
		rel, err := evalQ(env, q, es)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(want, 1e-9) {
			t.Fatalf("%s: answer differs from a fresh environment's", name)
		}
		counts := map[string][2]int64{}
		cmps := map[string]int64{}
		var walk func(n *exec.StatsSnapshot)
		walk = func(n *exec.StatsSnapshot) {
			if n.Op == "sort" {
				binding, _, _ := strings.Cut(n.Label, ".")
				c := counts[binding]
				counts[binding] = [2]int64{c[0] + n.CacheHits, c[1] + n.CacheMisses}
				cmps[binding] += n.Comparisons
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(es.Plan())
		for rel, w := range wantCounts {
			if counts[rel] != w {
				t.Errorf("%s: %s's orders hit/missed %v, want %v", name, rel, counts[rel], w)
			}
		}
		if got := sortedCopies(env); got != cached {
			t.Errorf("%s: %d sorted copies cached, want %d", name, got, cached)
		}
		if live := mgr.LiveTemps(); live != cached {
			t.Errorf("%s: %d temporaries live, want the %d cached copies", name, live, cached)
		}
		return cmps
	}
	miss, hit := [2]int64{0, 1}, [2]int64{1, 0}
	if cmps := step("first", map[string][2]int64{"R": miss, "S": miss}, 0); cmps["R"] == 0 || cmps["S"] == 0 {
		t.Errorf("first: a streamed sort counted no comparisons: %v", cmps)
	}
	step("second", map[string][2]int64{"R": miss, "S": miss}, 2)
	if cmps := step("third", map[string][2]int64{"R": hit, "S": hit}, 2); cmps["R"] != 0 || cmps["S"] != 0 {
		t.Errorf("third: a cache hit compared %v", cmps)
	}

	appendHeap(t, env, "S", frel.NewTuple(1, frel.Crisp(999), frel.Crisp(5), frel.Crisp(5)))
	if want, err = env.EvalNaive(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	step("after the append", map[string][2]int64{"R": hit, "S": miss}, 2)
	sHeap, err := env.cat.Relation("S")
	if err != nil {
		t.Fatal(err)
	}
	for k, ent := range env.sortCache {
		if k.heap == sHeap && ent.sorted != nil && ent.version == sHeap.Version() {
			t.Errorf("the first request after the append replaced S's cached copy")
		}
	}
	step("second after the append", map[string][2]int64{"R": hit, "S": miss}, 2)
	step("third after the append", map[string][2]int64{"R": hit, "S": hit}, 2)
}

// sortedCopies returns the number of sorted copies the sort cache holds.
func sortedCopies(e *Env) int {
	n := 0
	for _, ent := range e.sortCache {
		if ent.sorted != nil {
			n++
		}
	}
	return n
}

// appendHeap appends t to the catalog heap of the named relation, as an
// INSERT does.
func appendHeap(t *testing.T, env *Env, name string, tu frel.Tuple) {
	t.Helper()
	h, err := env.cat.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(tu); err != nil {
		t.Fatal(err)
	}
}

// padHeap appends n tuples that join nothing the tests look at (K from
// 1000 up, A and B from 100 up) to the named relation, so that its decoded
// form passes the cache budget of a small sort memory.
func padHeap(t *testing.T, env *Env, name string, n int) {
	t.Helper()
	h, err := env.cat.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	pad := frel.NewRelation(h.Schema)
	for i := range n {
		pad.Append(frel.NewTuple(1, frel.Crisp(float64(1000+i)), frel.Crisp(float64(100+i%7)), frel.Crisp(float64(100+i%11))))
	}
	if err := h.AppendAll(pad); err != nil {
		t.Fatal(err)
	}
}

// sortCacheCounts runs q under EXPLAIN ANALYZE and returns its sort nodes'
// cache hits and misses per relation binding (the label's prefix before
// the dot).
func sortCacheCounts(t *testing.T, env *Env, q *fsql.Select) (*frel.Relation, map[string][2]int64) {
	t.Helper()
	es := &ExecStats{}
	rel, err := evalQ(env, q, es)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string][2]int64{}
	var walk func(n *exec.StatsSnapshot)
	walk = func(n *exec.StatsSnapshot) {
		if n.Op == "sort" {
			binding, _, _ := strings.Cut(n.Label, ".")
			c := counts[binding]
			counts[binding] = [2]int64{c[0] + n.CacheHits, c[1] + n.CacheMisses}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(es.Plan())
	return rel, counts
}

// TestSortCacheAppendInvalidates checks the version-counter contract: an
// append to one relation's heap between queries makes every order of that
// relation miss, while the other relation's orders still hit, and the
// re-run sees the new tuples. Orders are admitted on their second request,
// so the cache is warm from the third run on.
func TestSortCacheAppendInvalidates(t *testing.T) {
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	r, s := cacheRel("R", 60, 1), cacheRel("S", 60, 2)
	env := memEnv(r, s)
	_, cold := sortCacheCounts(t, env, q)
	if cold["R"][1] == 0 || cold["S"][1] == 0 {
		t.Fatalf("first run built no orders of R and S: %v", cold)
	}
	if _, admit := sortCacheCounts(t, env, q); admit["R"] != cold["R"] || admit["S"] != cold["S"] {
		t.Fatalf("admitting run hit/missed %v, want %v as on the first run", admit, cold)
	}
	if _, warm := sortCacheCounts(t, env, q); warm["R"][1] != 0 || warm["S"][1] != 0 {
		t.Fatalf("repeat run missed the cache: %v", warm)
	}

	// Append to S: every S.B joins after this append.
	extra := frel.NewTuple(1, frel.Crisp(999), frel.Crisp(5), frel.Crisp(5))
	appendHeap(t, env, "S", extra)
	s.Append(extra)
	got, after := sortCacheCounts(t, env, q)
	if after["S"] != cold["S"] {
		t.Fatalf("after the append S's orders hit/missed %v, want %v as on the first run", after["S"], cold["S"])
	}
	if after["R"][1] != 0 {
		t.Fatalf("append to S invalidated an order of R: %v", after)
	}
	if want := freshAnswer(t, q, r, s); !got.Equal(want, 1e-9) {
		t.Fatalf("stale answer after append:\ngot:\n%v\nwant:\n%v", got, want)
	}
}

// TestSortCacheAliasSelfJoin: a self-join through a FROM alias sorts one
// heap under two bindings, and both share the heap's cache entries, so
// the repeat run sorts nothing; after an append to the heap every order
// under either binding is rebuilt, exactly as on the first run.
func TestSortCacheAliasSelfJoin(t *testing.T) {
	const aliasQuery = `SELECT R.K FROM R WHERE R.B IN (SELECT T.B FROM R T WHERE T.A = R.A)`
	q, err := fsql.ParseQuery(aliasQuery)
	if err != nil {
		t.Fatal(err)
	}
	r := cacheRel("R", 60, 7)
	env := memEnv(r)
	first, cold := sortCacheCounts(t, env, q)
	// Every tuple satisfies the self-membership, so the answer is R itself.
	if first.Len() != r.Len() {
		t.Fatalf("self-join answer has %d tuples, want %d", first.Len(), r.Len())
	}
	if cold["R"][1]+cold["T"][1] == 0 {
		t.Fatalf("first run built no orders: %v", cold)
	}
	second, warm := sortCacheCounts(t, env, q)
	if !first.Equal(second, 1e-9) {
		t.Fatal("aliased repeat run changed the answer")
	}
	if warm["R"][1] != 0 || warm["T"][1] != 0 || warm["R"][0]+warm["T"][0] == 0 {
		t.Fatalf("aliased repeat run did not hit the cache: %v", warm)
	}

	appendHeap(t, env, "R", frel.NewTuple(1, frel.Crisp(999), frel.Crisp(3), frel.Crisp(3)))
	got, after := sortCacheCounts(t, env, q)
	if after["R"] != cold["R"] || after["T"] != cold["T"] {
		t.Fatalf("after the append the aliased orders hit/missed %v, want %v as on the first run", after, cold)
	}
	if got.Len() != r.Len()+1 {
		t.Fatalf("answer after append has %d tuples, want %d", got.Len(), r.Len()+1)
	}
}

// TestSortCacheSessionInsertAndDelete drives invalidation through the
// statement layer on a disk-backed session: INSERT appends to the heap
// file (version bump), DELETE rewrites the relation through the catalog
// (fresh heap-file identity). Both must defeat the cache.
func TestSortCacheSessionInsertAndDelete(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO R VALUES (2, 2, 20);
		INSERT INTO R VALUES (3, 3, 30);
		INSERT INTO S VALUES (1, 1, 10);
		INSERT INTO S VALUES (2, 2, 25);
	`); err != nil {
		t.Fatal(err)
	}
	query := func() *frel.Relation {
		t.Helper()
		answers, err := execScript(sess, analyzeQuery)
		if err != nil {
			t.Fatal(err)
		}
		return answers[0]
	}
	if got := query(); got.Len() != 1 {
		t.Fatalf("seed answer = %v", got.Tuples)
	}
	query() // admits the orders into the cache
	query()
	if sess.Env.Work.CacheHits.Load() == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	// INSERT a matching S row: R.K = 2 now joins.
	if _, err := execScript(sess, `INSERT INTO S VALUES (9, 2, 20)`); err != nil {
		t.Fatal(err)
	}
	if got := query(); got.Len() != 2 {
		t.Fatalf("answer after INSERT = %v, want R.K 1 and 2", got.Tuples)
	}

	// DELETE it again: the catalog swaps in a rewritten heap file.
	if _, err := execScript(sess, `DELETE FROM S WHERE S.K = 9`); err != nil {
		t.Fatal(err)
	}
	if got := query(); got.Len() != 1 {
		t.Fatalf("answer after DELETE = %v, want only R.K 1", got.Tuples)
	}
}

// TestSortCacheCatalogReload reopens a database directory and checks the
// new session sees the stored data (a reload starts with a cold cache and
// fresh heap-file identities).
func TestSortCacheCatalogReload(t *testing.T) {
	dir := t.TempDir()
	sess, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO S VALUES (1, 1, 10);
	`); err != nil {
		t.Fatal(err)
	}
	if answers, err := execScript(sess, analyzeQuery); err != nil || answers[0].Len() != 1 {
		t.Fatalf("answers=%v err=%v", answers, err)
	}

	reopened, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reopened.Env.Work.CacheHits.Load(); hits != 0 {
		t.Fatalf("reopened session starts with %d cache hits", hits)
	}
	answers, err := execScript(reopened, analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 {
		t.Fatalf("reloaded answer = %v", answers[0].Tuples)
	}
	if reopened.Env.Work.CacheMisses.Load() == 0 {
		t.Fatal("reloaded query should rebuild (miss) its sort orders")
	}
}

// TestSortCacheEvictionKeepsServedCopies fills the cache and then runs a
// statement whose one sort is served by a cached sorted copy while the
// other misses a new order (its relation was rewritten by a DELETE), so
// that order's entry empties the full cache. The copy the statement was
// already served must stay readable until it ends: the answer equals the
// naive one, and afterwards no temporary outlives the cache. Each relation
// is the rewritten one in turn, so whichever the plan sorts first, one
// round serves a copy before the eviction.
func TestSortCacheEvictionKeepsServedCopies(t *testing.T) {
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, rewritten := range []string{"R", "S"} {
		t.Run(rewritten, func(t *testing.T) {
			sess, err := OpenSession(t.TempDir(), 32)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := execScript(sess, `
				CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
				CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
				INSERT INTO R VALUES (1, 1, 10);
				INSERT INTO R VALUES (2, 2, 20);
				INSERT INTO R VALUES (9, 3, 30);
				INSERT INTO S VALUES (1, 1, 10);
				INSERT INTO S VALUES (2, 2, 20);
				INSERT INTO S VALUES (9, 3, 25);
			`); err != nil {
				t.Fatal(err)
			}
			// Each of both relations' orders passes the cache budget of 2
			// pages of sort memory (128 KB) as columns, so their orders are
			// cached as sorted copies.
			sess.Env.SortMemPages = 2
			padHeap(t, sess.Env, "R", 1300)
			padHeap(t, sess.Env, "S", 1300)
			for range 2 { // the second run admits both orders
				if _, err := execScript(sess, analyzeQuery); err != nil {
					t.Fatal(err)
				}
			}
			env := sess.Env
			if got := sortedCopies(env); got != 2 {
				t.Fatalf("%d sorted copies cached after two runs, want 2", got)
			}
			if _, err := execScript(sess, `DELETE FROM `+rewritten+` WHERE `+rewritten+`.K = 9`); err != nil {
				t.Fatal(err)
			}
			// A DELETE's rewritten heap counts as a live temporary too.
			others := sess.cat.Manager().LiveTemps() - sortedCopies(env)
			// The next lookup drops the rewritten heap's order; drop it
			// now, so that the entries filled in below keep the cache full
			// for the statement.
			kept := map[string]string{"R": "S", "S": "R"}[rewritten]
			h, err := sess.cat.Relation(kept)
			if err != nil {
				t.Fatal(err)
			}
			env.dropStale(h, h.Version())
			for i := 0; len(env.sortCache) < sortCacheMaxEntries; i++ {
				env.entry(sortKey{heap: h, attr: 100 + i}) // orders seen once
			}
			want, err := sess.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := execScript(sess, analyzeQuery)
			if err != nil {
				t.Fatal(err)
			}
			if !answers[0].Equal(want, 1e-9) {
				t.Fatalf("answer after the eviction:\n%v\nwant:\n%v", answers[0], want)
			}
			if live, cached := sess.cat.Manager().LiveTemps()-others, sortedCopies(env); live != cached {
				t.Fatalf("%d sort temporaries live after the statement, want the %d cached copies", live, cached)
			}
		})
	}
}

// requestOrder serves R sorted on attr through e's sort cache, drains it,
// and returns the cache entry of that order.
func requestOrder(t *testing.T, e *Env, attr string) *sortEntry {
	t.Helper()
	ent, err := serveOrder(e, attr)
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

// serveOrder is requestOrder returning its error.
func serveOrder(e *Env, attr string) (*sortEntry, error) {
	src, err := e.source(fsql.TableRef{Name: "R"})
	if err != nil {
		return nil, err
	}
	sorted, err := e.sortSource(src, attr)
	if err != nil {
		return nil, err
	}
	_, err = exec.Collect(sorted)
	e.closeStreams(0)
	if err != nil {
		return nil, err
	}
	ai, err := src.Schema().Resolve(attr)
	if err != nil {
		return nil, err
	}
	h, err := e.cat.Relation("R")
	if err != nil {
		return nil, err
	}
	return e.sortCache[sortKey{heap: h, attr: ai}], nil
}

// budgetSession opens a database holding one relation R(K, A, B) whose
// columns take about two fifths of the cache budget of 2 pages of sort
// memory: two of its orders fit, three do not.
func budgetSession(t *testing.T) *Session {
	t.Helper()
	sess, err := OpenSessionOptions("db", SessionOptions{BufferPages: 32, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	sess.Env.SortMemPages = 2
	if _, err := execScript(sess, `CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER)`); err != nil {
		t.Fatal(err)
	}
	h, err := sess.cat.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	n := int(2 * sess.Env.cacheLimit() / 5 / columnsSize(h, 1))
	if err := h.AppendAll(cacheRel("R", n, 1)); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSortCacheBudgetIsPerDatabase: the sessions forked from a database
// share one cache budget. A second connection whose columns would pass it
// beside the first's two orders caches the sorted copy instead; once the
// first closes, its share is given back and the second's orders are
// columns; when every session has closed, the budget holds nothing.
func TestSortCacheBudgetIsPerDatabase(t *testing.T) {
	base := budgetSession(t)
	a, b := base.Fork(), base.Fork()
	for _, attr := range []string{"A", "A", "B", "B"} {
		requestOrder(t, a.Env, attr)
	}
	if ent := requestOrder(t, a.Env, "B"); ent.order == nil {
		t.Fatal("the first connection's orders are not columns")
	}
	held := a.Env.held
	requestOrder(t, b.Env, "A")
	if ent := requestOrder(t, b.Env, "A"); ent.order != nil || ent.sorted == nil {
		t.Fatalf("the second connection cached columns past the database's budget (columns %v, sorted copy %v)", ent.order != nil, ent.sorted != nil)
	}
	if b.Env.held != 0 || base.Env.budget.held != held {
		t.Fatalf("budget holds %d bytes, the second connection's share %d; want %d and 0", base.Env.budget.held, b.Env.held, held)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if base.Env.budget.held != 0 {
		t.Fatalf("a closed connection left %d bytes in the budget", base.Env.budget.held)
	}
	requestOrder(t, b.Env, "B")
	if ent := requestOrder(t, b.Env, "B"); ent.order == nil {
		t.Fatal("the second connection's order is not columns once the first closed")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if base.Env.budget.held != 0 {
		t.Fatalf("the closed connections left %d bytes in the budget", base.Env.budget.held)
	}
}

// TestSortCacheBudgetConcurrentSessions: sessions admitting orders at
// once charge the one budget under its lock. Eight connections each admit
// both orders of R concurrently; the budget then holds exactly the sum of
// their shares, within its limit, two orders over one or two connections
// (three do not fit), and nothing once they have closed. Run it under
// -race too.
func TestSortCacheBudgetConcurrentSessions(t *testing.T) {
	base := budgetSession(t)
	forks := make([]*Session, 8)
	for i := range forks {
		forks[i] = base.Fork()
	}
	errs := make(chan error, len(forks))
	for _, f := range forks {
		go func() {
			for _, attr := range []string{"A", "A", "B", "B"} {
				if _, err := serveOrder(f.Env, attr); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range forks {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	orders := 0
	for _, f := range forks {
		sum += f.Env.held
		for _, ent := range f.Env.sortCache {
			if ent.order != nil {
				orders++
			}
		}
	}
	if held := base.Env.budget.held; held != sum || held > base.Env.cacheLimit() || orders != 2 {
		t.Fatalf("budget holds %d bytes, the connections' shares sum to %d over %d cached orders; want equal, within %d, two orders", held, sum, orders, base.Env.cacheLimit())
	}
	for _, f := range forks {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if held := base.Env.budget.held; held != 0 {
		t.Fatalf("the closed connections left %d bytes in the budget", held)
	}
}

// TestSortCacheAppendReadmitsPermutations: after an append, the orders of
// a relation at the old version can never be served again, so the next
// lookup at the new version drops their columns. Both orders of a
// relation whose columns take two fifths of the budget each are columns
// again at the new version, and the cache holds just those two.
func TestSortCacheAppendReadmitsPermutations(t *testing.T) {
	e := budgetSession(t).Env
	for _, attr := range []string{"A", "A", "B", "B"} {
		requestOrder(t, e, attr)
	}
	appendHeap(t, e, "R", frel.NewTuple(1, frel.Crisp(-1), frel.Crisp(3), frel.Crisp(4)))
	var ents []*sortEntry
	for _, attr := range []string{"A", "A", "B", "B"} {
		ents = append(ents, requestOrder(t, e, attr))
	}
	for i, attr := range []string{"A", "B"} {
		if ent := ents[2*i+1]; ent.order == nil {
			t.Fatalf("order on %s after the append is not columns (sorted copy %v)", attr, ent.sorted != nil)
		}
	}
	h, err := e.cat.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if n := h.NumTuples(); e.held != 2*columnsSize(h, n) {
		t.Fatalf("the cache holds %d bytes after the append; want two orders' columns, %d", e.held, 2*columnsSize(h, n))
	}
}

// warmSession opens an in-memory database holding R and S of n tuples
// each, the relations of analyzeQuery.
func warmSession(t *testing.T, n int) *Session {
	t.Helper()
	sess, err := OpenSessionOptions("db", SessionOptions{BufferPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	for i, name := range []string{"R", "S"} {
		if err := sess.Env.LoadRelation(name, cacheRel(name, n, int64(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// TestSortCacheDropsOrdersOfReplacedHeaps: the orders of a heap a DELETE
// rewrote or DROP TABLE dropped can never be served again, so they leave
// the cache, and its share of the budget, at the session's next lookup.
// The J statement warms R's and S's orders; after a DELETE on R and after
// DROP TABLE R, the next statement leaves the cache holding orders of the
// catalog's heaps only, and the session's share of the budget no larger
// than before.
func TestSortCacheDropsOrdersOfReplacedHeaps(t *testing.T) {
	sess := warmSession(t, 2000)
	e := sess.Env
	warm := func(q string) {
		t.Helper()
		for range 3 {
			if _, err := execScript(sess, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func(when string) {
		t.Helper()
		for k := range e.sortCache {
			if cur, err := e.cat.Relation(k.heap.Schema.Name); err != nil || cur != k.heap {
				t.Errorf("%s: the cache still holds an order of a heap %s no longer has", when, k.heap.Schema.Name)
			}
		}
	}
	warm(analyzeQuery)
	held := e.held
	if held == 0 {
		t.Fatal("the warm statement cached no order")
	}
	if _, err := execScript(sess, `DELETE FROM R WHERE R.K >= 1990`); err != nil {
		t.Fatal(err)
	}
	warm(analyzeQuery)
	live("after the DELETE")
	if e.held > held {
		t.Errorf("after the DELETE the cache holds %d bytes, %d before it", e.held, held)
	}
	if _, err := execScript(sess, `DROP TABLE R`); err != nil {
		t.Fatal(err)
	}
	warm(`SELECT S.K FROM S WHERE S.B IN (SELECT X.B FROM S X WHERE X.A = S.A)`)
	live("after the DROP TABLE")
	if e.held > held {
		t.Errorf("after the DROP TABLE the cache holds %d bytes, %d before it", e.held, held)
	}
}

// TestExplainAnalyzeCountsCacheHits: a sort served by the cache is still a
// node of the EXPLAIN ANALYZE tree. On a warm statement every sort node
// reports a hit, no miss and, as rows, the cardinality of the order it
// handed over; the index node of an order loaded from an index does the
// same with its load.
func TestExplainAnalyzeCountsCacheHits(t *testing.T) {
	const n = 2000
	sess := warmSession(t, n)
	if _, err := execScript(sess, `CREATE INDEX s_a ON S (A); CREATE INDEX s_b ON S (B)`); err != nil {
		t.Fatal(err)
	}
	q := mustSelect(t, analyzeQuery)
	nodes := func(op string) []*exec.StatsSnapshot {
		t.Helper()
		_, es, err := sess.EvalAnalyze(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var found []*exec.StatsSnapshot
		var walk func(p *exec.StatsSnapshot)
		walk = func(p *exec.StatsSnapshot) {
			if p.Op == op {
				found = append(found, p)
			}
			for _, c := range p.Children {
				walk(c)
			}
		}
		walk(es.Plan())
		if len(found) == 0 {
			t.Fatalf("no %s node in\n%s", op, es.Plan().Render())
		}
		return found
	}
	for _, p := range nodes("index") {
		if p.IndexHits != 1 || p.RowsOut != n {
			t.Errorf("index node %s: index hits %d, rows %d; want 1 and the order's %d", p.Label, p.IndexHits, p.RowsOut, n)
		}
	}
	nodes("sort") // admits R's order
	for _, p := range nodes("sort") {
		if p.CacheHits != 1 || p.CacheMisses != 0 || p.RowsOut != n {
			t.Errorf("warm sort node %s: cache(hit=%d miss=%d) rows=%d; want cache(hit=1 miss=0) rows=%d", p.Label, p.CacheHits, p.CacheMisses, p.RowsOut, n)
		}
	}
}
