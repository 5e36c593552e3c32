package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// conjunct is one join conjunct in both forms: compiled, and its degree
// written out from the definition.
type conjunct struct {
	step kernel.Step
	ref  refJoinPred
}

// cmpConjunct compares column col of both sides with op.
func cmpConjunct(op fuzzy.Op, col int) conjunct {
	return conjunct{
		step: kernel.Step{Kind: kernel.StepCompare, Op: op, Left: kernel.Column(col), Right: kernel.RightColumn(col)},
		ref:  func(l, r frel.Tuple) float64 { return frel.Degree(op, l.Values[col], r.Values[col]) },
	}
}

// conjunction compiles cs and returns the program with its reference: the
// minimum over the conjuncts in order, stopping at the first zero like the
// program does.
func conjunction(t testing.TB, cs ...conjunct) (*kernel.Program, refJoinPred) {
	t.Helper()
	steps := make([]kernel.Step, len(cs))
	for i, c := range cs {
		steps[i] = c.step
	}
	ref := func(l, r frel.Tuple) float64 {
		d := 1.0
		for _, c := range cs {
			if g := c.ref(l, r); g < d {
				if d = g; d == 0 {
					break
				}
			}
		}
		return d
	}
	return program(t, steps...), ref
}

// namedRel is vagueRel, sorted on X, with a duplicate-heavy ID and a
// third column NAME drawn from four strings: columns ID 0, X 1, NAME 2.
func namedRel(t *testing.T, name string, rng *rand.Rand) *frel.Relation {
	t.Helper()
	base := sortedRel(t, vagueRel(name, 60+rng.Intn(40), 300, 7, rng), "X")
	r := frel.NewRelation(frel.NewSchema(name,
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	))
	names := []string{"ann", "betty", "cy", "dee"}
	for _, tp := range base.Tuples {
		d := tp.D
		if rng.Intn(2) == 0 {
			d = 0.05 + 0.95*rng.Float64()
		}
		r.Append(frel.NewTuple(d, frel.Crisp(float64(rng.Intn(12))), tp.Values[1], frel.Str(names[rng.Intn(len(names))])))
	}
	return r
}

// windowClass is one correlation class: the correlation conjunct (none
// for a step without one) and whether it has a range window.
type windowClass struct {
	name   string
	corr   []conjunct
	ranged bool
}

func windowClasses() []windowClass {
	classes := []windowClass{
		{"eq range", []conjunct{cmpConjunct(fuzzy.OpEq, 1)}, true},
		{"eq whole", []conjunct{cmpConjunct(fuzzy.OpEq, 1)}, false},
		{"string eq", []conjunct{cmpConjunct(fuzzy.OpEq, 2)}, false},
		{"none", nil, false},
	}
	for _, op := range []fuzzy.Op{fuzzy.OpLt, fuzzy.OpLe, fuzzy.OpGt, fuzzy.OpGe, fuzzy.OpNe} {
		classes = append(classes, windowClass{op.String(), []conjunct{cmpConjunct(op, 1)}, false})
	}
	return classes
}

// TestWindowsMatchReference runs the join, the anti-join and the
// group-aggregate over both windows against their all-pairs references
// (bruteJoinAt, bruteAntiMin, bruteJA), for every correlation class:
// numeric equality over the range window and over the whole-inner window,
// string equality, no correlation, and <, <=, >, >=, <>. At 1, 2, 4 and 8
// workers, floors 0 and 0.5, and for the join every fold side, rows must
// match exactly at bit-identical degrees, with the reference's work. The
// two windows of a numeric equality must agree row for row, and a whole
// window is one morsel at 8 workers.
func TestWindowsMatchReference(t *testing.T) {
	link := conjunct{ // the JALL link R.ID > ALL S.ID, complemented
		step: kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpGt, Neg: true, Left: kernel.Column(0), Right: kernel.RightColumn(0)},
		ref:  func(l, r frel.Tuple) float64 { return 1 - frel.Degree(fuzzy.OpGt, l.Values[0], r.Values[0]) },
	}
	extra := []conjunct{cmpConjunct(fuzzy.OpLe, 0)} // the residual R.ID <= S.ID
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, s := namedRel(t, "R", rng), namedRel(t, "S", rng)
		rangeJoin := map[float64][]frel.Tuple{}
		rangeAnti := map[float64][]frel.Tuple{}
		for _, wc := range windowClasses() {
			oAttr, iAttr := "", ""
			var tol *fuzzy.Trapezoid
			if wc.ranged {
				oAttr, iAttr, tol = "R.X", "S.X", &fuzzy.Trapezoid{}
			}
			// The join: a range window takes its equality as the band, so
			// only the residual is extra; a whole window's extra is the
			// whole condition.
			joinConds := append(append([]conjunct{}, wc.corr...), extra...)
			if wc.ranged {
				joinConds = extra
			}
			pp, ref := conjunction(t, joinConds...)
			// The anti-join's penalty always holds the correlation.
			terms, and := conjunction(t, append(append([]conjunct{}, wc.corr...), link)...)
			penalty := func(l, m frel.Tuple) float64 { return 1 - min(m.D, and(l, m)) }

			for _, floor := range []float64{0, 0.5} {
				name := fmt.Sprintf("seed %d %s floor %g", seed, wc.name, floor)
				pairs := bruteJoinAt(r, s, tol, ref, FoldNone, floor, NewOpStats("", ""))
				if len(pairs) == 0 {
					t.Fatalf("%s: the reference join is empty: the case proves nothing", name)
				}
				anti := bruteAntiMin(r, s, penalty, floor, wc.ranged, NewOpStats("", ""))
				if floor == 0 && regraded(r, anti) == 0 {
					t.Fatalf("%s: no inner tuple lowered an outer degree: the case proves nothing", name)
				}
				if wc.name == "eq range" {
					rangeJoin[floor], rangeAnti[floor] = pairs, anti
				} else if wc.name == "eq whole" {
					sameSequence(t, name+": join windows", pairs, rangeJoin[floor])
					sameSequence(t, name+": anti-join windows", anti, rangeAnti[floor])
				}
				for _, workers := range []int{1, 2, 4, 8} {
					wname := fmt.Sprintf("%s workers %d", name, workers)
					for _, fc := range []struct {
						fold Fold
						emit []int
						refs []string
					}{{FoldNone, nil, nil}, {FoldOuter, []int{0}, []string{"R.ID"}}, {FoldInner, []int{3}, []string{"S.ID"}}} {
						st := NewOpStats("merge-join", "")
						kj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s), oAttr, iAttr, fuzzy.Trapezoid{}, pp, st, workers)
						if err != nil {
							t.Fatal(err)
						}
						kj.Floor = floor
						want := pairs
						if fc.fold != FoldNone {
							if err := kj.EmitColumns(fc.emit, fc.fold); err != nil {
								t.Fatal(err)
							}
							want = foldedReference(t, r, s, pairs, fc.refs)
						}
						got := batchDrain(t, kj)
						fname := fmt.Sprintf("%s fold %d", wname, fc.fold)
						if fc.fold != FoldNone {
							// A fold emits in its input's order, at most one
							// row per tuple; the answer is its deduplication.
							folded := fc.fold == FoldOuter && len(got) > r.Len() || fc.fold == FoldInner && len(got) > s.Len()
							if folded {
								t.Fatalf("%s: %d rows exceed the folded input", fname, len(got))
							}
							got, want = byKey(dedupMax(got, len(fc.emit))), byKey(want)
						}
						sameSequence(t, fname, got, want)
						sw := NewOpStats("", "")
						bruteJoinAt(r, s, tol, ref, fc.fold, floor, sw)
						sameWork(t, fname, st, sw)
						wholeOneMorsel(t, fname, wc.ranged, workers, st)
					}

					st := NewOpStats("merge-anti-join", "")
					am, err := NewMergeAntiMin(NewMemSource(r), NewMemSource(s), oAttr, iAttr, terms, st)
					if err != nil {
						t.Fatal(err)
					}
					am.Workers, am.Floor = workers, floor
					sameSequence(t, wname+" anti-join", batchDrain(t, am), anti)
					sw := NewOpStats("", "")
					bruteAntiMin(r, s, penalty, floor, wc.ranged, sw)
					sameWork(t, wname+" anti-join", st, sw)
					wholeOneMorsel(t, wname+" anti-join", wc.ranged, workers, st)
				}
			}
		}

		// The group-aggregate: numeric equality sweeps the range window,
		// every other correlation operator the whole inner.
		gr, gs := randomCorrelated(rng, 60+rng.Intn(60), 60+rng.Intn(60))
		gr = sortedSource(t, gr, "U").(*MemSource).Rel
		gs = sortedRel(t, gs, "V")
		for _, op2 := range []fuzzy.Op{fuzzy.OpEq, fuzzy.OpLt, fuzzy.OpLe, fuzzy.OpGt, fuzzy.OpGe, fuzzy.OpNe} {
			for _, agg := range []fuzzy.AggFunc{fuzzy.AggCount, fuzzy.AggAvg} {
				full := bruteJA(gr, gs, agg, fuzzy.OpGt, op2).Tuples
				for _, floor := range []float64{0, 0.5} {
					sw := NewOpStats("", "")
					groupAggWork(gr, gs, agg, op2, floor, sw)
					for _, workers := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("seed %d group-agg %v op2 %v floor %g workers %d", seed, agg, op2, floor, workers)
						st := NewOpStats("group-agg-join", "")
						j, err := NewGroupAggJoin(NewMemSource(gr), NewMemSource(gs), "R.U", "S.V", op2, "S.Z", agg, "R.Y", fuzzy.OpGt, st)
						if err != nil {
							t.Fatal(err)
						}
						j.Workers, j.Floor = workers, floor
						sameSequence(t, name, batchDrain(t, j), thresholded(full, floor))
						sameWork(t, name, st, sw)
						wholeOneMorsel(t, name, op2 == fuzzy.OpEq, workers, st)
					}
				}
			}
		}
	}
}

// regraded counts the tuples of r an anti-join dropped or lowered.
func regraded(r *frel.Relation, anti []frel.Tuple) int {
	inD := make(map[string]float64, r.Len())
	for _, tp := range r.Tuples {
		inD[tp.Key()] = tp.D
	}
	n := r.Len() - len(anti)
	for _, tp := range anti {
		if tp.D != inD[tp.Key()] {
			n++
		}
	}
	return n
}

// foldedReference is the deduplicated projection of the reference pairs
// onto refs: what a fold onto the input owning refs must answer.
func foldedReference(t *testing.T, r, s *frel.Relation, pairs []frel.Tuple, refs []string) []frel.Tuple {
	t.Helper()
	proj, err := NewProject(NewMemSource(&frel.Relation{Schema: r.Schema.Join(s.Schema), Tuples: pairs}), refs, true)
	if err != nil {
		t.Fatal(err)
	}
	return batchDrain(t, proj)
}

// dedupMax merges rows of n numeric columns into one row per value at the
// maximum degree, in first-seen order.
func dedupMax(rows []frel.Tuple, n int) []frel.Tuple {
	schema := &frel.Schema{}
	for i := 0; i < n; i++ {
		schema.Attrs = append(schema.Attrs, frel.Attribute{Name: fmt.Sprint("C", i), Kind: frel.KindNumber})
	}
	rel := &frel.Relation{Schema: schema, Tuples: append([]frel.Tuple(nil), rows...)}
	rel.DedupMax()
	return rel.Tuples
}

// byKey sorts rows by their values.
func byKey(rows []frel.Tuple) []frel.Tuple {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key() < rows[j].Key() })
	return rows
}

// wholeOneMorsel requires a whole-window sweep at 8 workers to have run as
// one morsel.
func wholeOneMorsel(t *testing.T, name string, ranged bool, workers int, st *OpStats) {
	t.Helper()
	if !ranged && workers == 8 && st.Morsels.Load() != 1 {
		t.Errorf("%s: a whole window ran as %d morsels", name, st.Morsels.Load())
	}
}
