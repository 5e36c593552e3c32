package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// pairExtras builds the residual conjuncts of the merge-join tests in both
// forms: a compiled Program and the equivalent closure for the
// all-pairs reference, evaluating in the same order and stopping at the
// first zero like the program does.
func pairExtras(t testing.TB) (*kernel.Program, refJoinPred) {
	t.Helper()
	konst := frel.Num(fuzzy.Tri(10, 30, 50))
	pp := program(t, extraSteps()...)
	preds := []refJoinPred{
		func(l, r frel.Tuple) float64 {
			return frel.Degree(fuzzy.OpLe, l.Values[0], r.Values[0])
		},
		func(l, r frel.Tuple) float64 {
			return frel.Degree(fuzzy.OpGt, l.Values[1], konst)
		},
	}
	interp := func(l, r frel.Tuple) float64 {
		d := 1.0
		for _, p := range preds {
			if g := p(l, r); g < d {
				d = g
				if d == 0 {
					return 0
				}
			}
		}
		return d
	}
	return pp, interp
}

// extraSteps are pairExtras' conjuncts: R.ID <= S.ID and R.X > about 30.
func extraSteps() []kernel.Step {
	return []kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpLe,
			Left: kernel.Column(0), Right: kernel.RightColumn(0)},
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Tri(10, 30, 50)))},
	}
}

// bruteMergeJoin is the all-pairs reference of the band merge-join over
// sorted inputs: every pair whose X supports intersect (the inner one
// widened by tol) joins at min(µ(r), µ(s), d(r.X = s.X ⊕ tol), extra),
// emitted outer-major, which over sorted inputs is the merge order. It
// records the work a sweep must report: one comparison and degree
// evaluation per intersecting pair, one more evaluation per pair that
// reaches the extra conjuncts, and the Rng(r) length of every outer tuple.
func bruteMergeJoin(r, s *frel.Relation, tol fuzzy.Trapezoid, extra refJoinPred, st *OpStats) []frel.Tuple {
	return bruteMergeJoinAt(r, s, tol, extra, FoldNone, 0, st)
}

// bruteMergeJoinAt is bruteMergeJoin under a fold side and a floor. Its
// output is the unfloored join's pairs thresholded at the floor, every
// degree computed in full; its work is what the floored sweep must count:
// an outer tuple below the floor is neither compared nor observed, a pair
// whose inner degree is below it is compared but not evaluated, and the
// extra conjuncts are not evaluated on a pair already below the floor or,
// folding, not above its folded tuple's best so far.
func bruteMergeJoinAt(r, s *frel.Relation, tol fuzzy.Trapezoid, extra refJoinPred, fold Fold, floor float64, st *OpStats) []frel.Tuple {
	return bruteJoinAt(r, s, &tol, extra, fold, floor, st)
}

// bruteJoinAt is bruteMergeJoinAt for either window: a nil tol is the
// whole-inner window, where every pair is compared, no band equality is
// evaluated and extra is the whole join condition.
func bruteJoinAt(r, s *frel.Relation, tol *fuzzy.Trapezoid, extra refJoinPred, fold Fold, floor float64, st *OpStats) []frel.Tuple {
	var out []frel.Tuple
	bestS := make([]float64, s.Len())
	for _, l := range r.Tuples {
		if l.D < floor {
			continue
		}
		lX := l.Values[1].Num
		var rng int64
		var bestO float64
		for k, m := range s.Tuples {
			var sX fuzzy.Trapezoid
			if tol != nil {
				if sX = fuzzy.Add(m.Values[1].Num, *tol); !lX.Intersects(sX) {
					continue
				}
			}
			rng++
			st.Comparisons.Add(1)
			if m.D < floor {
				continue
			}
			d := min(l.D, m.D)
			if tol != nil {
				st.DegreeEvals.Add(1)
				d = fuzzy.Min(l.D, m.D, fuzzy.Eq(lX, sX))
			}
			if d > 0 && extra != nil {
				best := map[Fold]float64{FoldOuter: bestO, FoldInner: bestS[k]}[fold]
				if d >= floor && (fold == FoldNone || d > best) {
					st.DegreeEvals.Add(1)
				}
				if g := extra(l, m); g < d {
					d = g
				}
			}
			if d > 0 && d >= floor {
				out = append(out, l.Concat(m, d))
				bestO, bestS[k] = max(bestO, d), max(bestS[k], d)
			}
		}
		st.ObserveRng(rng)
	}
	return out
}

// thresholded returns the tuples of ts whose degree is at least floor.
func thresholded(ts []frel.Tuple, floor float64) []frel.Tuple {
	var out []frel.Tuple
	for _, t := range ts {
		if t.D >= floor {
			out = append(out, t)
		}
	}
	return out
}

// TestKernelMergeJoinMatchesInterpreted checks the morsel-scheduled
// merge-join against the all-pairs reference with interpreted conjuncts on
// random inputs: identical output sequences and work at every worker
// count, with and without residual conjuncts and band tolerances.
func TestKernelMergeJoinMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tols := []fuzzy.Trapezoid{fuzzy.Crisp(0), fuzzy.Tri(-3, 0, 3), fuzzy.Trap(-5, -2, 2, 5)}
	for _, withExtra := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			r := sortedRel(t, randomRel("R", 80+rng.Intn(120), 80, 6, rng), "X")
			s := sortedRel(t, randomRel("S", 80+rng.Intn(120), 80, 6, rng), "X")
			tol := tols[trial%len(tols)]

			var pp *kernel.Program
			var extra refJoinPred
			if withExtra {
				pp, extra = pairExtras(t)
			}
			full := bruteMergeJoin(r, s, tol, extra, NewOpStats("merge-join", ""))
			// The floor leg: the floored sweep's output is the full join
			// thresholded at the floor, and it does the work the reference
			// predicts for the floor.
			for _, floor := range []float64{0, 0.5} {
				sw := NewOpStats("merge-join", "")
				want := bruteMergeJoinAt(r, s, tol, extra, FoldNone, floor, sw)
				sameSequence(t, "reference", want, thresholded(full, floor))
				for _, workers := range []int{1, 2, 4, 8} {
					sk := NewOpStats("merge-join", "")
					kj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s),
						"R.X", "S.X", tol, pp, sk, workers)
					if err != nil {
						t.Fatal(err)
					}
					kj.Floor = floor
					name := fmt.Sprintf("merge-join floor %g workers %d", floor, workers)
					sameSequence(t, name, batchDrain(t, kj), want)
					sameWork(t, name, sk, sw)
					if sk.Morsels.Load() == 0 {
						t.Errorf("%s: no morsels recorded", name)
					}
					if sk.KernelTuples.Load() != int64(r.Len()) {
						t.Errorf("%s: KernelTuples %d, want %d", name, sk.KernelTuples.Load(), r.Len())
					}
				}
			}
		}
	}
}

// TestKernelMergeJoinEmitAndFold checks the folded forms of the join
// against the reference pipeline — the all-pairs join, projected with
// max-degree duplicate elimination: an emit mask alone reproduces the
// projected pair sequence, and a fold onto either input reproduces the
// deduplicated answer exactly (same rows, bit-identical degrees), emits
// at most one row per tuple of the folded input in that input's order,
// and leaves the work of the sweep unchanged, at every worker
// count. The projected columns hold few distinct values, so the answer
// also needs the cross-tuple dedup above the join.
func TestKernelMergeJoinEmitAndFold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, workers := range []int{1, 2, 4} {
		for trial := 0; trial < 6; trial++ {
			r := sortedRel(t, randomRel("R", 100+rng.Intn(100), 60, 5, rng), "X")
			s := sortedRel(t, randomRel("S", 100+rng.Intn(100), 60, 5, rng), "X")
			for _, rel := range []*frel.Relation{r, s} {
				for i := range rel.Tuples {
					rel.Tuples[i].Values[0] = frel.Crisp(float64(rng.Intn(12))) // ID: duplicate-heavy
					if rng.Intn(2) == 0 {
						rel.Tuples[i].D = 0.05 + 0.95*rng.Float64()
					}
				}
			}
			// reference is the all-pairs join projected one pair at a
			// time, and deduplicated by the oracle when dedup is set.
			reference := func(refs []string, dedup bool) []frel.Tuple {
				_, extra := pairExtras(t)
				_, idx, err := r.Schema.Join(s.Schema).Project(refs)
				if err != nil {
					t.Fatal(err)
				}
				out := frel.NewRelation(nil)
				for _, pair := range bruteMergeJoin(r, s, fuzzy.Crisp(0), extra, NewOpStats("merge-join", "")) {
					out.Append(pair.Project(idx))
				}
				if dedup {
					out.DedupMax()
				}
				return out.Tuples
			}
			kjoin := func(emit []int, fold Fold, floor float64) ([]frel.Tuple, *OpStats) {
				st := NewOpStats("merge-join", "")
				pp, _ := pairExtras(t)
				kj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s),
					"R.X", "S.X", fuzzy.Crisp(0), pp, st, workers)
				if err != nil {
					t.Fatal(err)
				}
				kj.Floor = floor
				if err := kj.EmitColumns(emit, fold); err != nil {
					t.Fatal(err)
				}
				return batchDrain(t, kj), st
			}
			// refWork is the work the reference predicts for a fold side
			// and a floor.
			refWork := func(fold Fold, floor float64) *OpStats {
				_, extra := pairExtras(t)
				st := NewOpStats("merge-join", "")
				bruteMergeJoinAt(r, s, fuzzy.Crisp(0), extra, fold, floor, st)
				return st
			}

			// Columns: R.ID 0, R.X 1, S.ID 2, S.X 3.
			got, cn := kjoin([]int{2, 0}, FoldNone, 0)
			sameSequence(t, "emit mask", got, reference([]string{"S.ID", "R.ID"}, false))
			sameWork(t, "emit mask", cn, refWork(FoldNone, 0))

			for _, fc := range []struct {
				name   string
				fold   Fold
				emit   []int
				refs   []string
				folded *frel.Relation
			}{
				{"fold outer", FoldOuter, []int{0}, []string{"R.ID"}, r},
				{"fold inner", FoldInner, []int{2}, []string{"S.ID"}, s},
				{"fold outer, no columns", FoldOuter, []int{}, []string{}, r},
			} {
				for _, floor := range []float64{0, 0.5} {
					rows, ck := kjoin(fc.emit, fc.fold, floor)
					if len(rows) > fc.folded.Len() {
						t.Fatalf("%s: %d rows for %d tuples of the folded input", fc.name, len(rows), fc.folded.Len())
					}
					schema := &frel.Schema{}
					for range fc.emit {
						schema.Attrs = append(schema.Attrs, frel.Attribute{Name: "ID", Kind: frel.KindNumber})
					}
					folded := &frel.Relation{Schema: schema, Tuples: rows}
					folded.DedupMax()
					want := thresholded(reference(fc.refs, true), floor)
					if !folded.Equal(&frel.Relation{Schema: schema, Tuples: want}, 0) {
						t.Fatalf("%s (workers %d floor %g): folded answer differs from the reference:\n%v\nwant\n%v", fc.name, workers, floor, folded.Tuples, want)
					}
					// A fold skips the residual of a pair that cannot raise
					// its tuple's best: less work than the pairs, exactly
					// what the reference predicts.
					sameWork(t, fc.name, ck, refWork(fc.fold, floor))
					if floor == 0 && ck.DegreeEvals.Load() >= cn.DegreeEvals.Load() {
						t.Errorf("%s: the fold evaluated %d degrees, the pairs %d", fc.name, ck.DegreeEvals.Load(), cn.DegreeEvals.Load())
					}
				}
			}
		}
	}
}

// TestKernelMergeJoinFoldOrder: a fold emits in the order of the folded
// input, whichever side it is and however many workers run, so answers
// built from it are deterministic.
func TestKernelMergeJoinFoldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 400, 300, 4, rng)
	s := randomRel("S", 400, 300, 4, rng)
	for _, fc := range []struct {
		fold Fold
		emit []int
	}{{FoldOuter, []int{0, 1}}, {FoldInner, []int{2, 3}}} {
		var first []frel.Tuple
		for _, workers := range []int{1, 2, 4, 8} {
			kj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
				"R.X", "S.X", fuzzy.Tri(-2, 0, 2), nil, NewOpStats("merge-join", ""), workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := kj.EmitColumns(fc.emit, fc.fold); err != nil {
				t.Fatal(err)
			}
			rows := batchDrain(t, kj)
			for i := 1; i < len(rows); i++ {
				if frel.Compare(rows[i-1].Values[1], rows[i].Values[1]) > 0 {
					t.Fatalf("fold %v workers %d: row %d out of the folded input's order", fc.fold, workers, i)
				}
			}
			if first == nil {
				first = rows
			} else {
				sameSequence(t, "fold order", rows, first)
			}
		}
	}
}

// TestKernelMergeJoinEmitColumnsValidation: a fold may only emit columns
// of the folded input, and emit columns must exist.
func TestKernelMergeJoinEmitColumnsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r, s := randomRel("R", 5, 10, 2, rng), randomRel("S", 5, 10, 2, rng)
	kj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", fuzzy.Crisp(0), nil, NewOpStats("merge-join", ""), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		emit []int
		fold Fold
	}{{[]int{2}, FoldOuter}, {[]int{0}, FoldInner}, {[]int{4}, FoldNone}, {[]int{-1}, FoldNone}} {
		if err := kj.EmitColumns(bad.emit, bad.fold); err == nil {
			t.Errorf("EmitColumns(%v, %v): want an error", bad.emit, bad.fold)
		}
	}
	if err := kj.EmitColumns([]int{3, 0}, FoldNone); err != nil {
		t.Fatal(err)
	}
	if got := kj.Schema().Attrs; len(got) != 2 || got[0].Name != "S.X" || got[1].Name != "R.ID" {
		t.Errorf("emit schema = %v", got)
	}
}

// TestKernelMergeJoinEmptySides covers empty inputs: the join must not
// emit or evaluate anything, and must still observe one empty Rng(r) scan
// per outer tuple.
func TestKernelMergeJoinEmptySides(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRel("R", 40, 30, 3, rng)
	empty := frel.NewRelation(xSchema("S"))
	for _, flip := range []bool{false, true} {
		outer, inner, outerAttr, innerAttr := r, empty, "R.X", "S.X"
		if flip {
			outer, inner, outerAttr, innerAttr = empty, r, "S.X", "R.X"
		}
		sk := NewOpStats("merge-join", "")
		kj, err := NewKernelMergeJoin(sortedSource(t, outer, "X"), sortedSource(t, inner, "X"),
			outerAttr, innerAttr, fuzzy.Crisp(0), nil, sk, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := batchDrain(t, kj); len(got) != 0 {
			t.Fatalf("flip=%v: empty-side join emitted %d tuples", flip, len(got))
		}
		snap := sk.Snapshot()
		if snap.RngCount != int64(outer.Len()) || snap.RngMax != 0 {
			t.Errorf("flip=%v: %d Rng observations with max %d, want %d empty ones",
				flip, snap.RngCount, snap.RngMax, outer.Len())
		}
		if snap.Comparisons != 0 || snap.DegreeEvals != 0 {
			t.Errorf("flip=%v: work on an empty side: cmp %d deg %d", flip, snap.Comparisons, snap.DegreeEvals)
		}
	}
}

// TestMorselGrain pins the grain policy: serial runs get one morsel,
// parallel runs a bounded number of small ones.
func TestMorselGrain(t *testing.T) {
	if g := morselGrain(10000, 1); g <= 10000 {
		t.Errorf("serial grain %d must exceed the total weight", g)
	}
	if g := morselGrain(10000, 0); g <= 10000 {
		t.Errorf("grain for workers=0 is %d, want one morsel", g)
	}
	if g := morselGrain(100000, 4); g != 100000/(4*16) {
		t.Errorf("parallel grain = %d, want %d", g, 100000/(4*16))
	}
	if g := morselGrain(100, 4); g != 256 {
		t.Errorf("small-input grain = %d, want the 256 floor", g)
	}
}
