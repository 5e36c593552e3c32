package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// openIndexSession opens a session over a shared in-memory file system and
// loads the two-relation workload used by the index tests: R(K, A, B) and
// S(A, B) with a mix of crisp and trapezoidal values on the join
// attribute B.
func openIndexSession(t *testing.T, fs storage.FS) *Session {
	t.Helper()
	s, err := OpenSessionOptions("db", SessionOptions{BufferPages: 32, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func loadIndexWorkload(t *testing.T, sess *Session) {
	t.Helper()
	stmts := []string{
		`CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER)`,
		`CREATE TABLE S (A NUMBER, B NUMBER)`,
	}
	for i := 0; i < 25; i++ {
		stmts = append(stmts,
			fmt.Sprintf(`INSERT INTO R VALUES (%d, %d, TRAP(%d, %d, %d, %d))`,
				i, i%5, i%7, i%7+1, i%7+2, i%7+3))
		stmts = append(stmts,
			fmt.Sprintf(`INSERT INTO S VALUES (%d, %d)`, i%5, i%7+1))
	}
	if _, err := execScript(sess, strings.Join(stmts, ";\n")); err != nil {
		t.Fatal(err)
	}
}

func mustSelect(t *testing.T, src string) *fsql.Select {
	t.Helper()
	st, err := fsql.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*fsql.Select)
}

// TestIndexServesColdQuery is the tentpole acceptance check: with indexes
// on the join attribute, a cold Open + nested query executes with zero
// external-sort work — no sort operator in EXPLAIN ANALYZE, no sort-cache
// misses, the inputs served from the persistent indexes — and the answer
// is bit-identical to the naive evaluation.
func TestIndexServesColdQuery(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `
		CREATE INDEX r_b ON R (B);
		CREATE INDEX s_b ON S (B);
	`); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold: a fresh process image — new buffer pool, empty sort caches.
	sess = openIndexSession(t, fs)
	defer sess.Close()
	q := mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	sess.Env.Work = exec.NewOpStats("total", "")
	got, stats, err := sess.EvalAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	plan := stats.Plan()
	if plan == nil {
		t.Fatal("no stats tree")
	}
	if n := plan.Find("sort"); n != nil {
		t.Fatalf("cold indexed query ran a sort:\n%s", plan.Render())
	}
	if n := plan.Find("index"); n == nil || n.IndexHits == 0 {
		t.Fatalf("no index operator in the plan:\n%s", plan.Render())
	}
	if misses := sess.Env.Work.CacheMisses.Load(); misses != 0 {
		t.Fatalf("sort_cache_misses = %d, want 0", misses)
	}
	if hits := sess.Env.Work.IndexHits.Load(); hits < 2 {
		t.Fatalf("index hits = %d, want both merge inputs served", hits)
	}

	naive, err := sess.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(got, 0) {
		t.Fatalf("indexed answer differs from naive:\nindexed: %v\nnaive:   %v", got.Tuples, naive.Tuples)
	}

	// Warm repeat: the loaded order replays from the sort cache.
	sess.Env.Work = exec.NewOpStats("total", "")
	if _, _, err := sess.EvalAnalyze(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if hits := sess.Env.Work.CacheHits.Load(); hits < 2 {
		t.Fatalf("warm repeat cache hits = %d, want >= 2", hits)
	}
}

// slowReadFS sleeps readDelay before every ReadAt of the files named in
// slow, and counts those reads.
type slowReadFS struct {
	storage.FS
	slow  map[string]bool
	reads atomic.Int64
}

const readDelay = time.Millisecond

func (f *slowReadFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || !f.slow[filepath.Base(path)] {
		return file, err
	}
	return &slowFile{File: file, fs: f}, nil
}

type slowFile struct {
	storage.File
	fs *slowReadFS
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	time.Sleep(readDelay)
	return f.File.ReadAt(p, off)
}

// TestIndexNodeTimesItsLoad: the index node's time covers loading the
// order (reading the heap and the entry file, and sorting),
// which happens before its consumer pulls a row, and its page I/O counts
// those reads. The files of the indexed relation are read slowly on a
// cold reopen, so the load's share of the node's time is unmistakable.
func TestIndexNodeTimesItsLoad(t *testing.T) {
	mem := storage.NewMemFS()
	sess := openIndexSession(t, mem)
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `CREATE INDEX r_b ON R (B); CHECKPOINT;`); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	fs := &slowReadFS{FS: mem, slow: map[string]bool{"r.heap": true, "idx-r-b.heap": true}}
	sess = openIndexSession(t, fs)
	defer sess.Close()
	p, err := sess.Env.PlanQuery(mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`))
	if err != nil {
		t.Fatal(err)
	}
	fs.reads.Store(0)
	es := &ExecStats{}
	if _, err := sess.Eval(context.Background(), p, es); err != nil {
		t.Fatal(err)
	}
	n := es.Plan().Find("index")
	if n == nil {
		t.Fatalf("R.B not served by its index:\n%s", es.Plan().Render())
	}
	reads := fs.reads.Load()
	if reads == 0 {
		t.Fatal("the index load read neither file: the timing check is vacuous")
	}
	if min := time.Duration(reads) * readDelay; time.Duration(n.WallNanos) < min {
		t.Errorf("index node time %v, its load did %d reads of %v each", time.Duration(n.WallNanos), reads, readDelay)
	}
	if n.PageIOs < reads {
		t.Errorf("index node counted %d page I/Os, its load read %d pages", n.PageIOs, reads)
	}
}

// TestIndexServesInsertedTail: an index is written once; tuples inserted
// afterwards, by autocommit statements and by an explicit transaction,
// add no entries but form the tail the index load sorts in, so the index
// keeps serving with answers identical to the naive evaluation.
func TestIndexServesInsertedTail(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	defer sess.Close()
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `CREATE INDEX r_b ON R (B)`); err != nil {
		t.Fatal(err)
	}
	q := mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	check := func(label string) {
		t.Helper()
		sess.Env.Work = exec.NewOpStats("total", "")
		sess.Env.ReleaseSortCache() // load R's order from the index anew
		got, err := sess.ExecContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if hits := sess.Env.Work.IndexHits.Load(); hits < 1 {
			t.Fatalf("%s: index hits = %d, want >= 1", label, hits)
		}
		naive, err := sess.EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(got, 0) {
			t.Fatalf("%s: answers differ:\nindexed: %v\nnaive:   %v", label, got.Tuples, naive.Tuples)
		}
	}
	if _, err := execScript(sess, `INSERT INTO R VALUES (100, 1, TRAP(0, 1, 2, 3))`); err != nil {
		t.Fatal(err)
	}
	check("after an autocommit insert")
	if _, err := execScript(sess, `
		BEGIN;
		INSERT INTO R VALUES (101, 2, 5);
		INSERT INTO R VALUES (102, 3, TRAP(2, 3, 4, 5)) DEGREE 0.5;
	`); err != nil {
		t.Fatal(err)
	}
	check("inside the transaction")
	if _, err := execScript(sess, `COMMIT`); err != nil {
		t.Fatal(err)
	}
	check("after the commit")

	h, err := sess.Catalog().Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := sess.Catalog().LookupIndex("r_b")
	if !ok {
		t.Fatal("index lost")
	}
	if ih, hh := ix.Heap().NumTuples(), h.NumTuples(); ih != 25 || hh != 28 {
		t.Fatalf("index has %d entries, heap %d tuples; want 25 and 28", ih, hh)
	}
}

// TestIndexDDLBarrier: CREATE INDEX and DROP INDEX are transaction
// barriers; inside an open transaction they fail and leave the
// transaction intact.
func TestIndexDDLBarrier(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	defer sess.Close()
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `CREATE INDEX s_b ON S (B)`); err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := execScript(sess, `CREATE INDEX r_b ON R (B)`); err == nil ||
		!strings.Contains(err.Error(), "cannot run inside a transaction") {
		t.Fatalf("CREATE INDEX inside txn: err = %v", err)
	}
	if _, err := execScript(sess, `DROP INDEX s_b`); err == nil ||
		!strings.Contains(err.Error(), "cannot run inside a transaction") {
		t.Fatalf("DROP INDEX inside txn: err = %v", err)
	}
	if !sess.InTxn() {
		t.Fatal("rejected index DDL aborted the transaction")
	}
	if _, err := execScript(sess, `INSERT INTO R VALUES (200, 0, 1); COMMIT`); err != nil {
		t.Fatalf("transaction unusable after rejected DDL: %v", err)
	}
	if _, err := execScript(sess, `DROP INDEX s_b`); err != nil {
		t.Fatalf("DROP INDEX at barrier: %v", err)
	}
}

// TestIndexServesBulkLoadedTail: a bulk append after the build is one
// more tail. The index serves it (no external sort), and a reopen keeps
// the index as written instead of rebuilding it.
func TestIndexServesBulkLoadedTail(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `CREATE INDEX r_b ON R (B)`); err != nil {
		t.Fatal(err)
	}
	h, err := sess.Catalog().Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	extra := frel.NewRelation(h.Schema)
	extra.Append(frel.NewTuple(1, frel.Crisp(300), frel.Crisp(1), frel.Crisp(2)))
	extra.Append(frel.NewTuple(1, frel.Crisp(301), frel.Crisp(2), frel.Crisp(3)))
	if err := h.AppendAll(extra); err != nil {
		t.Fatal(err)
	}

	q := mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	eval := func(label string) *frel.Relation {
		t.Helper()
		sess.Env.Work = exec.NewOpStats("total", "")
		got, stats, err := sess.EvalAnalyze(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if n := stats.Plan().Find("index"); n == nil || n.Label != "R.B" {
			t.Fatalf("%s: R.B not served by its index:\n%s", label, stats.Plan().Render())
		}
		return got
	}
	got := eval("bulk tail")
	naive, err := sess.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(got, 0) {
		t.Fatal("answer with a bulk-loaded tail differs from naive")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	sess = openIndexSession(t, fs)
	defer sess.Close()
	ix, ok := sess.Catalog().LookupIndex("r_b")
	if !ok {
		t.Fatal("index lost across reopen")
	}
	if n := ix.Heap().NumTuples(); n != 25 {
		t.Fatalf("reopened index has %d entries, want the 25 it was written with", n)
	}
	if !got.Equal(eval("after reopen"), 0) {
		t.Fatal("answers differ across reopen")
	}
}

// indexServesStableSort checks that relation rel's order on attr is served
// by its order index (one more index load, the sort cache emptied first)
// and is, tuple for tuple, the engine's stable sort of the relation.
func indexServesStableSort(t *testing.T, e *Env, rel, attr string) {
	t.Helper()
	h, err := e.cat.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	ai, err := h.Schema.Resolve(attr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sortStable(want, ai)
	e.ReleaseSortCache()
	loads := e.Work.IndexHits.Load()
	src, err := e.source(fsql.TableRef{Name: rel})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := e.sortSource(src, attr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(sorted)
	e.closeStreams(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Work.IndexHits.Load() - loads; n != 1 {
		t.Fatalf("%s.%s: %d index loads, want the order served by its index", rel, attr, n)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s.%s: %d tuples served, the relation holds %d", rel, attr, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if !identicalTuples(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("%s.%s: position %d holds %v, the stable sort %v", rel, attr, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestIndexCorruptEntriesServeTheStableSort: an entry file that is not the
// stable order of a tid prefix still serves exactly the stable sort, never
// indexed past the relation's end nor served out of order: the reader
// sorts whatever the file lists, and the query answers correctly. R has 25
// tuples when r_b is built; each case appends one entry to the file and,
// in the last two, one tuple with the smallest B to R, so the file is
// exactly as long as the relation. Repeating the last entry keeps the file
// in order; appending tid 25 keeps it a permutation.
func TestIndexCorruptEntriesServeTheStableSort(t *testing.T) {
	const repeatLast = ^uint64(0)
	for _, tc := range []struct {
		name   string
		tid    uint64
		insert bool
	}{
		{"repeated tid, longer than the relation", repeatLast, false},
		{"repeated tid", repeatLast, true},
		{"permutation out of order", 25, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := openIndexSession(t, storage.NewMemFS())
			defer sess.Close()
			loadIndexWorkload(t, sess)
			if _, err := execScript(sess, `CREATE INDEX r_b ON R (B)`); err != nil {
				t.Fatal(err)
			}
			ix, _ := sess.Catalog().LookupIndex("r_b")
			tid := tc.tid
			if tid == repeatLast {
				tids, err := storage.ReadIndexEntries(ix.Heap())
				if err != nil {
					t.Fatal(err)
				}
				tid = tids[len(tids)-1]
			}
			if err := ix.Heap().AppendRaw(storage.AppendIndexEntry(nil, tid)); err != nil {
				t.Fatal(err)
			}
			if tc.insert {
				if _, err := execScript(sess, `INSERT INTO R VALUES (99, 0, -1)`); err != nil {
					t.Fatal(err)
				}
			}
			q := mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
			got, err := sess.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := sess.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !naive.Equal(got, 0) {
				t.Fatal("answer differs from naive with a corrupt index")
			}
			indexServesStableSort(t, sess.Env, "R", "B")
		})
	}
}

// TestIndexOrderIsTheStableSort: the order an index load serves is, tuple
// for tuple, the engine's stable sort of the visible relation, at both
// visibility horizons: live, with a tail of tuples
// appended after the build, and at a snapshot taken before the build, which
// sees only part of the index's prefix. Supports repeat, so ties are
// common.
func TestIndexOrderIsTheStableSort(t *testing.T) {
	e := NewMemEnv()
	schema := frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber})
	h, err := e.cat.CreateRelation("R", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			a := float64(rng.Intn(6))
			b := a + float64(rng.Intn(2))
			k := float64(h.NumTuples())
			if err := h.Append(frel.NewTuple(1, frel.Crisp(k), frel.Num(fuzzy.Trap(a, b, b+1, a+3)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(300)
	early := e.takeSnapshot()
	appendN(100)
	if _, err := e.cat.CreateIndex("r_b", "R", "B"); err != nil {
		t.Fatal(err)
	}
	appendN(50)
	all, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name    string
		snap    *Snapshot
		visible int
	}{{"live", nil, 450}, {"snapshot before the build", early, 300}} {
		want := &frel.Relation{Schema: schema, Tuples: slices.Clone(all.Tuples[:leg.visible])}
		sortStable(want, 1)
		restore := e.setSnapshot(leg.snap)
		e.ReleaseSortCache()
		src, err := e.source(fsql.TableRef{Name: "R"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := e.sortSource(src, "B")
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(sorted)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if ent := e.sortCache[sortKey{heap: h, attr: 1}]; ent == nil || ent.order == nil {
			t.Fatalf("%s: the order was not served by the index", leg.name)
		}
		if len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("%s: %d tuples, want %d", leg.name, len(got.Tuples), len(want.Tuples))
		}
		for i := range got.Tuples {
			if g, w := got.Tuples[i].Values[0].Num.A, want.Tuples[i].Values[0].Num.A; g != w {
				t.Fatalf("%s: position %d holds K=%v, the stable sort has K=%v", leg.name, i, g, w)
			}
		}
	}
}

// TestIndexInOlderOrderServesTheStableSort: an order-index file written
// under the order older versions used — Definition 3.1 alone, ties in tid
// order — lists tuples the current order separates (equal supports with
// different cores, −0 and +0) out of order. The index still serves the
// current stable order, which the reader's sort makes of whatever the file
// lists, and the statements answer as the naive evaluation does, with no
// error; so does the same file written in the current order.
func TestIndexInOlderOrderServesTheStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	bs := []fuzzy.Trapezoid{
		fuzzy.Trap(0, 2, 3, 4), fuzzy.Trap(0, 1, 3, 4), fuzzy.Crisp(negZero), fuzzy.Crisp(0),
		fuzzy.Crisp(negZero), fuzzy.Trap(0, 2, 3, 4), fuzzy.Crisp(0), fuzzy.Trap(0, 1, 2, 4),
	}
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i, b := range bs {
		r.Append(frel.NewTuple(1-float64(i)/20, frel.Crisp(float64(i)), frel.Crisp(float64(i%3)), frel.Num(b)))
	}
	s := frel.NewRelation(frel.NewSchema("S",
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i, b := range []float64{0, 1, 2, 3, negZero} {
		s.Append(frel.NewTuple(0.9, frel.Crisp(float64(i)), frel.Crisp(b)))
	}
	tids := make([]uint64, len(bs))
	for i := range tids {
		tids[i] = uint64(i)
	}
	older := slices.Clone(tids)
	slices.SortStableFunc(older, func(i, j uint64) int {
		x, y := bs[i], bs[j]
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.D, y.D))
	})
	current := slices.Clone(tids)
	slices.SortStableFunc(current, func(i, j uint64) int {
		return frel.Compare(r.Tuples[i].Values[2], r.Tuples[j].Values[2])
	})
	if slices.Equal(older, current) {
		t.Fatal("the two orders agree on the test data")
	}
	queries := []string{
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`,
		`SELECT R.K FROM R WHERE R.A >= (SELECT AVG(S.A) FROM S WHERE S.B = R.B)`,
	}
	for _, tc := range []struct {
		name string
		tids []uint64
	}{{"older order", older}, {"current order", current}} {
		mgr := storage.NewManager(t.TempDir(), 16)
		cat := catalog.New(mgr)
		hr, err := cat.CreateRelation("R", r.Schema)
		if err != nil {
			t.Fatal(err)
		}
		// Built over the empty relation, the index holds no entry; the
		// file is then written entry by entry, as an older build left it.
		ix, err := cat.CreateIndex("r_b", "R", "B")
		if err != nil {
			t.Fatal(err)
		}
		if err := hr.AppendAll(r); err != nil {
			t.Fatal(err)
		}
		for _, tid := range tc.tids {
			if err := ix.Heap().AppendRaw(storage.AppendIndexEntry(nil, tid)); err != nil {
				t.Fatal(err)
			}
		}
		hs, err := cat.CreateRelation("S", s.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.AppendAll(s); err != nil {
			t.Fatal(err)
		}
		for _, src := range queries {
			q := mustSelect(t, src)
			e := NewEnv(cat)
			got, err := evalQ(e, q, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, src, err)
			}
			naive, err := e.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 || !naive.Equal(got, 0) {
				t.Errorf("%s: %s: got %v, naive %v", tc.name, src, got.Tuples, naive.Tuples)
			}
		}
		indexServesStableSort(t, NewEnv(cat), "R", "B")
	}
}

// TestIndexDeleteRebuild: DELETE's contents swap rebuilds the indexes, so
// they keep serving with correct answers.
func TestIndexDeleteRebuild(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	defer sess.Close()
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `
		CREATE INDEX r_b ON R (B);
		DELETE FROM R WHERE R.K >= 20;
	`); err != nil {
		t.Fatal(err)
	}
	q := mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`)
	sess.Env.Work = exec.NewOpStats("total", "")
	got, err := sess.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hits := sess.Env.Work.IndexHits.Load(); hits < 1 {
		t.Fatal("rebuilt index does not serve after DELETE")
	}
	naive, err := sess.EvalNaive(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(got, 0) {
		t.Fatal("answer differs from naive after DELETE rebuild")
	}
}

// TestIndexedJAMatchesExternalSortOnTies: JA (AVG) over tie-heavy R and S,
// both larger than the sort memory, gives the same rows and bit-identical
// degrees whether S's order on S.A comes from a multi-run external sort or
// from an order index. The group-aggregate sums S.B over each group in
// the sorted order, so the two orders must agree tuple for tuple within
// ties: the index stores the stable order, and the external sort must be
// stable across runs too.
func TestIndexedJAMatchesExternalSortOnTies(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`)
	if err != nil {
		t.Fatal(err)
	}
	// findSort returns the sort or index node of label, nil if none.
	var findSort func(n *exec.StatsSnapshot, label string) *exec.StatsSnapshot
	findSort = func(n *exec.StatsSnapshot, label string) *exec.StatsSnapshot {
		if (n.Op == "sort" || n.Op == "index") && n.Label == label {
			return n
		}
		for _, c := range n.Children {
			if m := findSort(c, label); m != nil {
				return m
			}
		}
		return nil
	}
	var answers []*frel.Relation
	for _, indexed := range []bool{false, true} {
		mgr := storage.NewManager(t.TempDir(), 16)
		cat := catalog.New(mgr)
		rng := rand.New(rand.NewSource(31))
		r := frel.NewRelation(frel.NewSchema("R",
			frel.Attribute{Name: "K", Kind: frel.KindNumber},
			frel.Attribute{Name: "A", Kind: frel.KindNumber},
			frel.Attribute{Name: "B", Kind: frel.KindNumber}))
		for i := 0; i < 600; i++ {
			c := 40 + rng.Float64()*20
			r.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Crisp(float64(i)), frel.Crisp(float64(rng.Intn(5))),
				frel.Num(fuzzy.Trap(c-15, c-5, c+5, c+15))))
		}
		s := frel.NewRelation(frel.NewSchema("S",
			frel.Attribute{Name: "A", Kind: frel.KindNumber},
			frel.Attribute{Name: "B", Kind: frel.KindNumber}))
		for i := 0; i < 2000; i++ {
			s.Append(frel.NewTuple(rng.Float64()*0.9+0.1, frel.Crisp(float64(rng.Intn(5))), frel.Crisp(rng.Float64()*100)))
		}
		for _, rel := range []*frel.Relation{r, s} {
			h, err := cat.CreateRelation(rel.Schema.Name, rel.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.AppendAll(rel); err != nil {
				t.Fatal(err)
			}
		}
		if indexed {
			if _, err := cat.CreateIndex("s_a", "S", "A"); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEnv(cat)
		e.SortMemPages = 2
		es := &ExecStats{}
		got, err := evalQ(e, q, es)
		if err != nil {
			t.Fatal(err)
		}
		node := findSort(es.Plan(), "S.A")
		switch {
		case node == nil:
			t.Fatalf("indexed=%v: no order on S.A in:\n%s", indexed, es.Plan().Render())
		case indexed && node.IndexHits == 0:
			t.Fatalf("the index did not serve S.A:\n%s", es.Plan().Render())
		case !indexed && node.SortRuns < 2:
			t.Fatalf("S.A was sorted in %d runs, want several:\n%s", node.SortRuns, es.Plan().Render())
		}
		if got.Len() == 0 {
			t.Fatal("empty answer")
		}
		answers = append(answers, got)
	}
	if !answers[0].Equal(answers[1], 0) {
		t.Fatalf("JA answers differ between the external sort and the index:\nsorted:  %v\nindexed: %v", answers[0].Tuples, answers[1].Tuples)
	}
}

// TestExplainShowsIndexedMerge: the planner annotates merge steps whose
// inputs it expects to be index-served.
func TestExplainShowsIndexedMerge(t *testing.T) {
	fs := storage.NewMemFS()
	sess := openIndexSession(t, fs)
	defer sess.Close()
	loadIndexWorkload(t, sess)
	if _, err := execScript(sess, `
		CREATE INDEX r_b ON R (B);
		CREATE INDEX s_b ON S (B);
	`); err != nil {
		t.Fatal(err)
	}
	p, err := sess.Env.PlanQuery(mustSelect(t, `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`))
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(p.Lines(), "\n")
	if !strings.Contains(text, "index(both)") {
		t.Fatalf("EXPLAIN does not mark the indexed merge:\n%s", text)
	}
}
