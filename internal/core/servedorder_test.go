package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
	"repro/internal/workload"
)

// identicalTuples reports whether two tuples are bit for bit the same:
// degree, kinds, trapezoid corners (signed zeros included) and strings.
func identicalTuples(a, b frel.Tuple) bool {
	if math.Float64bits(a.D) != math.Float64bits(b.D) || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Kind != w.Kind || v.Str != w.Str ||
			math.Float64bits(v.Num.A) != math.Float64bits(w.Num.A) || math.Float64bits(v.Num.B) != math.Float64bits(w.Num.B) ||
			math.Float64bits(v.Num.C) != math.Float64bits(w.Num.C) || math.Float64bits(v.Num.D) != math.Float64bits(w.Num.D) {
			return false
		}
	}
	return true
}

// orderRows draws n tuples of the R(K, A, B) shape with many equal join
// values (crisp and triangular, around a few centres, signed zeros among
// them), so stability decides most of an order. K numbers the tuples from
// first.
func orderRows(rng *rand.Rand, schema *frel.Schema, first, n int) *frel.Relation {
	r := frel.NewRelation(schema)
	val := func() frel.Value {
		c := float64(rng.Intn(6))
		switch rng.Intn(3) {
		case 0:
			if c == 0 {
				return frel.Crisp(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
			return frel.Crisp(c)
		case 1:
			return frel.Num(fuzzy.Tri(c-1, c, c+1))
		}
		return frel.Num(fuzzy.Trap(c-2, c-1, c+1, c+2))
	}
	for i := range n {
		r.Append(frel.NewTuple(0.05+0.95*rng.Float64(), frel.Crisp(float64(first+i)), val(), val()))
	}
	return r
}

// TestServedOrdersAreTheStableSort is the property of every order the
// sort cache serves, however it serves it: random interleavings of
// appends, rolled-back transactions (read inside, before the rollback),
// snapshot readers, order requests on two attributes, index builds and
// drops, and indexes over entry files the engine did not write
// (entryFile), at a sort memory of 2 pages whose 128 KB cache budget the
// relation's two orders outgrow. Every served order, streamed, admitted into cached
// columns or a sorted copy, hit, or loaded from an index, must equal
// exactly the stable (frel.Compare, tid) sort of the tuples its reader
// sees, and an index whatever its file lists must serve it. The run must
// cross every path: cached columns, sorted copies, index loads and loads
// over written entry files.
func TestServedOrdersAreTheStableSort(t *testing.T) {
	for seed := range int64(4) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sess, err := OpenSessionOptions("db", SessionOptions{BufferPages: 32, FS: storage.NewMemFS()})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			e := sess.Env
			e.SortMemPages = 2
			if _, err := execScript(sess, `CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER)`); err != nil {
				t.Fatal(err)
			}
			h, err := e.cat.Relation("R")
			if err != nil {
				t.Fatal(err)
			}
			added := 0
			appendRows := func(n int) {
				t.Helper()
				if err := h.AppendAll(orderRows(rng, h.Schema, added, n)); err != nil {
					t.Fatal(err)
				}
				added += n
			}
			appendRows(700)

			var perms, copies, files int
			check := func(step int, snap *Snapshot, attr string) {
				t.Helper()
				restore := e.setSnapshot(snap)
				src, err := e.source(fsql.TableRef{Name: "R"})
				if err != nil {
					t.Fatal(err)
				}
				sorted, err := e.sortSource(src, attr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exec.Collect(sorted)
				restore()
				e.closeStreams(0)
				if err != nil {
					t.Fatal(err)
				}
				n := h.NumTuples()
				if snap != nil && !snap.Live(h) {
					sn, _ := snap.Lookup(h)
					n = sn.Tuples
				}
				want, err := exec.Collect(exec.NewHeapSourceAt(h, n))
				if err != nil {
					t.Fatal(err)
				}
				ai, _ := h.Schema.Resolve(attr)
				sort.SliceStable(want.Tuples, func(i, j int) bool {
					return frel.Compare(want.Tuples[i].Values[ai], want.Tuples[j].Values[ai]) < 0
				})
				if len(got.Tuples) != len(want.Tuples) {
					t.Fatalf("step %d, order on %s: %d tuples served, the reader sees %d", step, attr, len(got.Tuples), len(want.Tuples))
				}
				for i := range want.Tuples {
					if !identicalTuples(got.Tuples[i], want.Tuples[i]) {
						t.Fatalf("step %d, order on %s: position %d holds %v, the stable sort %v", step, attr, i, got.Tuples[i], want.Tuples[i])
					}
				}
				if ent := e.sortCache[sortKey{heap: h, attr: ai}]; ent != nil {
					if ent.order != nil {
						perms++
					}
					if ent.sorted != nil {
						copies++
					}
				}
			}
			attrs := []string{"A", "B"}
			var snaps []*Snapshot
			indexed := map[string]bool{}
			for step := range 150 {
				attr := attrs[rng.Intn(2)]
				switch op := rng.Intn(12); {
				case op < 3:
					appendRows(1 + rng.Intn(40))
				case op < 5:
					// A transaction reads its own uncommitted rows, often
					// enough to admit an order over them, then rolls them
					// back, and as many rows are appended right after: the
					// heap is as long as the rolled-back state was.
					if _, err := execScript(sess, `BEGIN`); err != nil {
						t.Fatal(err)
					}
					k := 1 + rng.Intn(5)
					for range k {
						if _, err := execScript(sess, fmt.Sprintf(`INSERT INTO R VALUES (%d, %d, %d)`, 100000+step, rng.Intn(6), rng.Intn(6))); err != nil {
							t.Fatal(err)
						}
					}
					for range 2 + rng.Intn(2) {
						check(step, sess.txn.snap, attr)
					}
					if _, err := execScript(sess, `ROLLBACK`); err != nil {
						t.Fatal(err)
					}
					appendRows(k)
				case op == 5:
					snaps = append(snaps, e.takeSnapshot())
				case op == 6:
					name := "r_" + strings.ToLower(attr)
					stmt := fmt.Sprintf(`CREATE INDEX %s ON R (%s)`, name, attr)
					if indexed[attr] {
						stmt = `DROP INDEX ` + name
					}
					if _, err := execScript(sess, stmt); err != nil {
						t.Fatal(err)
					}
					indexed[attr] = !indexed[attr]
				case op == 7:
					// An entry file the engine did not write: R is rebuilt
					// with the same tuples under an index created while it
					// was empty, whose file is then written entry by entry.
					// The index must still serve the stable sort.
					rows, err := h.ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					name := "r_" + strings.ToLower(attr)
					if _, err := execScript(sess, fmt.Sprintf(`DROP TABLE R; CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER); CREATE INDEX %s ON R (%s)`, name, attr)); err != nil {
						t.Fatal(err)
					}
					if h, err = e.cat.Relation("R"); err != nil {
						t.Fatal(err)
					}
					ix, _ := e.cat.LookupIndex(name)
					ai, _ := h.Schema.Resolve(attr)
					for _, tid := range entryFile(rng, rows, ai) {
						if err := ix.Heap().AppendRaw(storage.AppendIndexEntry(nil, tid)); err != nil {
							t.Fatal(err)
						}
					}
					if err := h.AppendAll(rows); err != nil {
						t.Fatal(err)
					}
					indexed = map[string]bool{attr: true}
					snaps = nil // of the dropped relation
					loads := e.Work.IndexHits.Load()
					check(step, nil, attr)
					if e.Work.IndexHits.Load() != loads+1 {
						t.Fatalf("step %d: the order on %s was not served by its index over a written entry file", step, attr)
					}
					files++
				default:
					var snap *Snapshot
					if len(snaps) > 0 && rng.Intn(2) == 0 {
						snap = snaps[rng.Intn(len(snaps))]
					}
					check(step, snap, attr)
				}
			}
			if perms == 0 || copies == 0 || e.Work.IndexHits.Load() == 0 || files == 0 {
				t.Errorf("the run served %d cached columns, %d sorted copies and %d index loads, %d of them over written entry files; want each path crossed", perms, copies, e.Work.IndexHits.Load(), files)
			}
		})
	}
}

// entryFile returns the entries of an order-index file on attribute ai of
// rows that the engine did not write: a random permutation of the tids,
// tids drawn with repeats, the stable order with tids past the relation
// mixed in, a random file shorter than the relation, the stable order
// followed by repeated entries, or the order older versions wrote
// (Definition 3.1's supports alone, ties in tid order).
func entryFile(rng *rand.Rand, rows *frel.Relation, ai int) []uint64 {
	n := len(rows.Tuples)
	var perm, stable []uint64
	for i, p := range rng.Perm(n) {
		perm, stable = append(perm, uint64(p)), append(stable, uint64(i))
	}
	slices.SortStableFunc(stable, func(i, j uint64) int {
		return frel.Compare(rows.Tuples[i].Values[ai], rows.Tuples[j].Values[ai])
	})
	switch rng.Intn(6) {
	case 0:
		return perm
	case 1:
		for i := range perm {
			perm[i] = uint64(rng.Intn(n))
		}
		return perm
	case 2:
		for range 1 + rng.Intn(20) {
			past := uint64(n + rng.Intn(n))
			if rng.Intn(4) == 0 {
				past = ^uint64(0)
			}
			stable = slices.Insert(stable, rng.Intn(len(stable)+1), past)
		}
		return stable
	case 3:
		return perm[:rng.Intn(n)]
	case 4:
		return append(stable, perm[:1+rng.Intn(n)]...)
	}
	older := make([]uint64, n)
	for i := range older {
		older[i] = uint64(i)
	}
	slices.SortStableFunc(older, func(i, j uint64) int {
		x, y := rows.Tuples[i].Values[ai].Num, rows.Tuples[j].Values[ai].Num
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.D, y.D))
	})
	return older
}

// benchmarkClasses are the seven statement classes of the repository
// benchmark over R, S and T, with its answer threshold.
var benchmarkClasses = []string{
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN (SELECT T.B FROM T WHERE T.A = S.A))`,
}

// TestCachedTuplesAreNeverWritten: the columns the sort cache holds are
// shared by every statement they serve, so no operator may write them.
// The seven benchmark classes run twice on one session, with two sweep
// workers, once their orders are cached; every cached order must then
// still be the columns it was, bit for bit what they were before, and the
// answers unchanged. Run it under -race too: the workers read the shared
// columns concurrently.
func TestCachedTuplesAreNeverWritten(t *testing.T) {
	sess, err := OpenSessionOptions("db", SessionOptions{BufferPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Env.Parallelism = 2
	for i, rel := range []struct {
		name string
		n    int
	}{{"R", 2100}, {"S", 700}, {"T", 100}} {
		if _, err := workload.Load(sess.Catalog(), workload.Params{
			Name: rel.name, Tuples: rel.n, TupleBytes: 128, Fanout: 7, Width: 5, Jitter: 0.5, Seed: int64(1 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	run := func() []*frel.Relation {
		t.Helper()
		var out []*frel.Relation
		for _, q := range benchmarkClasses {
			answers, err := execScript(sess, q+` WITH D >= 0.5`)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			out = append(out, answers[0])
		}
		return out
	}
	run()          // streams every sort
	first := run() // admits the orders of R, S and T
	type held struct{ cols, was *frel.Columns }
	orders := map[*sortEntry]held{}
	relations := map[*storage.HeapFile]bool{}
	for k, ent := range sess.Env.sortCache {
		if ent.order != nil {
			cols := ent.order.Cols()
			perm := make([]int32, cols.Len())
			for i := range perm {
				perm[i] = int32(i)
			}
			orders[ent] = held{cols, cols.Gather(perm, nil)}
			relations[k.heap] = true
		}
	}
	if len(relations) != 3 {
		t.Fatalf("the cache holds orders of %d relations, want R, S and T", len(relations))
	}
	run()
	last := run()
	for ent, h := range orders {
		if ent.order == nil || ent.order.Cols() != h.cols {
			t.Fatalf("an order was rebuilt instead of hitting")
		}
		if !identicalColumns(h.cols, h.was) {
			t.Fatalf("cached columns were written")
		}
	}
	for i := range first {
		if !first[i].Equal(last[i], 0) {
			t.Errorf("%s: the answer changed between warm runs", benchmarkClasses[i])
		}
	}
}

// identicalColumns reports whether two columns hold the same tuples bit
// for bit.
func identicalColumns(a, b *frel.Columns) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		ta := frel.Tuple{Values: a.AppendValues(nil, i), D: a.D[i]}
		tb := frel.Tuple{Values: b.AppendValues(nil, i), D: b.D[i]}
		if !identicalTuples(ta, tb) {
			return false
		}
	}
	return true
}
