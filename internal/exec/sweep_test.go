package exec

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// TestCollectFlatKeys: the sweep reads its support keys from the columns
// it collects. Whatever serves a sorted input (an in-memory relation, a
// heap scan decoded straight into columns, or columns handed over whole,
// bare or under the stats and cancellation wrappers), and at any worker
// count, collectFlat holds the input's tuples in order as columns, and
// beside them the range column whose supports the sweep reads: the range
// attribute's column itself, or with range index −1 a column of ranges
// [−Inf, +Inf].
func TestCollectFlatKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := sortedRel(t, randomRel("R", 2600, 1000, 5, rng), "X")
	s := sortedRel(t, randomRel("S", 1900, 1000, 5, rng), "X")
	xi, _ := r.Schema.Resolve("X")
	mgr := storage.NewManager(t.TempDir(), 8)
	heap := func(rel *frel.Relation) *storage.HeapFile {
		h, err := mgr.CreateTemp(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Drop() })
		if err := h.AppendAll(rel); err != nil {
			t.Fatal(err)
		}
		return h
	}
	rh, sh := heap(r), heap(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	bases := map[string]func(rel *frel.Relation, h *storage.HeapFile) Source{
		"mem":  func(rel *frel.Relation, _ *storage.HeapFile) Source { return NewMemSource(rel) },
		"heap": func(_ *frel.Relation, h *storage.HeapFile) Source { return NewHeapSource(h) },
		"columns": func(rel *frel.Relation, _ *storage.HeapFile) Source {
			cols := frel.NewColumns(rel.Schema, rel.Len())
			for _, tu := range rel.Tuples {
				cols.AppendTuple(tu)
			}
			src, err := NewSortedColumns(rel.Schema, cols, xi)
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
	}
	wraps := map[string]func(Source) Source{
		"bare":    func(src Source) Source { return src },
		"stated":  func(src Source) Source { return NewStated(src, NewOpStats("scan", "")) },
		"context": func(src Source) Source { return WithContext(ctx, src) },
	}
	check := func(name string, got *frel.Columns, rng []fuzzy.Trapezoid, want []frel.Tuple, idx int) {
		t.Helper()
		rows := make([]frel.Tuple, got.Len())
		for i := range rows {
			rows[i] = frel.Tuple{Values: got.AppendValues(nil, i), D: got.D[i]}
		}
		sameSequence(t, name, rows, want)
		if len(rng) != len(rows) {
			t.Fatalf("%s: %d ranges for %d tuples", name, len(rng), len(rows))
		}
		for i, tu := range rows {
			lo, hi := math.Inf(-1), math.Inf(1)
			if idx >= 0 {
				lo, hi = tu.Values[idx].Num.Support()
			}
			if klo, khi := rng[i].Support(); klo != lo || khi != hi {
				t.Fatalf("%s: range %d = [%v, %v], want [%v, %v]", name, i, klo, khi, lo, hi)
			}
		}
	}
	for bn, base := range bases {
		for wn, wrap := range wraps {
			for _, workers := range []int{1, 4} {
				for _, idx := range []int{xi, -1} {
					name := bn + "/" + wn
					in, err := collectFlat("merge-join", wrap(base(r, rh)), wrap(base(s, sh)), idx, idx,
						fuzzy.Crisp(0), workers, NewOpStats("merge-join", ""))
					if err != nil {
						t.Fatalf("%s at %d workers, index %d: %v", name, workers, idx, err)
					}
					check(name+" outer", in.outer, in.oRng, r.Tuples, idx)
					check(name+" inner", in.inner, in.iRng, s.Tuples, idx)
				}
			}
		}
	}
}

// TestSweepRejectsUnsortedInput: each sweep refuses an outer or an inner
// input that is out of ≼ order on its range attribute, naming itself and
// the side, and accepts the same inputs over the whole-inner window,
// which checks no order.
func TestSweepRejectsUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sorted := sortedRel(t, randomRel("R", 300, 100, 3, rng), "X")
	unsorted := sorted.Clone()
	unsorted.Tuples[0], unsorted.Tuples[len(unsorted.Tuples)-1] = unsorted.Tuples[len(unsorted.Tuples)-1], unsorted.Tuples[0]
	rename := func(r *frel.Relation, name string) *frel.Relation {
		c := r.Clone()
		c.Schema = xSchema(name)
		return c
	}
	type sweep struct {
		name string
		// open builds the operator over outer and inner, on the support
		// window or the whole-inner one, and opens it.
		open func(outer, inner *frel.Relation, whole bool) error
	}
	opened := func(src Source, err error) error {
		if err != nil {
			t.Fatal(err)
		}
		it, err := src.Open()
		if err == nil {
			it.Close()
		}
		return err
	}
	attrs := func(whole bool) (string, string) {
		if whole {
			return "", ""
		}
		return "R.X", "S.X"
	}
	sweeps := []sweep{
		{"merge-join", func(outer, inner *frel.Relation, whole bool) error {
			oa, ia := attrs(whole)
			return opened(NewKernelMergeJoin(NewMemSource(outer), NewMemSource(inner), oa, ia,
				fuzzy.Crisp(0), nil, NewOpStats("merge-join", ""), 1))
		}},
		{"merge anti-join", func(outer, inner *frel.Relation, whole bool) error {
			oa, ia := attrs(whole)
			return opened(NewMergeAntiMin(NewMemSource(outer), NewMemSource(inner), oa, ia,
				nil, NewOpStats("merge-anti-join", "")))
		}},
		{"group-aggregate join", func(outer, inner *frel.Relation, whole bool) error {
			op2 := fuzzy.OpEq
			if whole {
				op2 = fuzzy.OpLt // a non-equality correlation sweeps the whole inner
			}
			return opened(NewGroupAggJoin(NewMemSource(outer), NewMemSource(inner), "R.X", "S.X", op2,
				"S.ID", fuzzy.AggMax, "R.ID", fuzzy.OpGe, NewOpStats("group-agg-join", "")))
		}},
	}
	for _, sw := range sweeps {
		for _, side := range []string{"outer", "inner"} {
			outer, inner := rename(sorted, "R"), rename(sorted, "S")
			if side == "outer" {
				outer = rename(unsorted, "R")
			} else {
				inner = rename(unsorted, "S")
			}
			err := sw.open(outer, inner, false)
			want := sw.name + " " + side + " input is not sorted by the Definition 3.1 order"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, unsorted %s: error %v, want one containing %q", sw.name, side, err, want)
			}
			if err := sw.open(outer, inner, true); err != nil {
				t.Errorf("%s, unsorted %s, whole-inner window: %v", sw.name, side, err)
			}
		}
	}
}
