package exec

import (
	"runtime"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

func relXY(name string, tuples ...frel.Tuple) *frel.Relation {
	r := frel.NewRelation(frel.NewSchema(name,
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	))
	r.Append(tuples...)
	return r
}

func drain(t *testing.T, src Source) *frel.Relation {
	t.Helper()
	rel, err := Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return rel
}

func TestFilterCombinesDegrees(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.9, frel.Crisp(24), frel.Str("a")),
		frel.NewTuple(0.5, frel.Crisp(27), frel.Str("b")),
		frel.NewTuple(1.0, frel.Crisp(99), frel.Str("c")),
	)
	mediumYoung := frel.Num(fuzzy.Trap(20, 25, 30, 35))
	prog := program(t, kernel.Step{Kind: kernel.StepCompare, Op: fuzzy.OpEq,
		Left: kernel.Column(0), Right: kernel.Constant(mediumYoung)})
	st := NewOpStats("filter", "")
	out := drain(t, NewFusedFilter(NewMemSource(rel), prog, st))
	// (0.9, 24): min(0.9, 0.8) = 0.8; (0.5, 27): min(0.5, 1) = 0.5; 99 dropped.
	if out.Len() != 2 {
		t.Fatalf("len = %d: %v", out.Len(), out.Tuples)
	}
	if deg := st.DegreeEvals.Load(); deg != 3 {
		t.Errorf("DegreeEvals = %d, want one per input tuple (3)", deg)
	}
	if out.Tuples[0].D != 0.8 {
		t.Errorf("tuple 0 degree = %g, want 0.8", out.Tuples[0].D)
	}
	if out.Tuples[1].D != 0.5 {
		t.Errorf("tuple 1 degree = %g, want 0.5", out.Tuples[1].D)
	}
}

func TestProjectDedupMax(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.3, frel.Crisp(1), frel.Str("Ann")),
		frel.NewTuple(0.7, frel.Crisp(2), frel.Str("Ann")),
		frel.NewTuple(0.7, frel.Crisp(3), frel.Str("Betty")),
	)
	p, err := NewProject(NewMemSource(rel), []string{"NAME"})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, p)
	if out.Len() != 2 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.Tuples[0].Values[0].Str != "Ann" || out.Tuples[0].D != 0.7 {
		t.Errorf("tuple 0 = %v", out.Tuples[0])
	}
	if out.Schema.Attrs[0].Name != "R.NAME" {
		t.Errorf("schema = %v", out.Schema)
	}
}

// TestProjectDedupLowCardinalityAllocs: a duplicate-eliminating
// projection sizes its set from its input's size only up to a cap, so
// projecting a column of 8 distinct values out of 200 000 tuples
// allocates a bounded set, not one row per input tuple (about 10 MB).
func TestProjectDedupLowCardinalityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	rel := relXY("R")
	for i := range 200000 {
		rel.Append(frel.NewTuple(1, frel.Crisp(float64(i%8)), frel.Str("")))
	}
	p, err := NewProject(NewMemSource(rel), []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		rows += len(b)
	}
	it.Close()
	runtime.ReadMemStats(&after)
	if rows != 8 {
		t.Fatalf("%d distinct rows, want 8", rows)
	}
	const maxBytes = 3 << 20
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > maxBytes {
		t.Errorf("projecting 8 distinct values of 200 000 tuples allocated %d bytes, want <= %d", bytes, maxBytes)
	}
}

func TestProjectUnknownRef(t *testing.T) {
	rel := relXY("R")
	if _, err := NewProject(NewMemSource(rel), []string{"NOPE"}); err == nil {
		t.Errorf("want error")
	}
}

func TestCollectAndSpillRoundTrip(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.5, frel.Crisp(1), frel.Str("a")),
		frel.NewTuple(0.9, frel.Crisp(2), frel.Str("b")),
	)
	got := drain(t, NewMemSource(rel))
	if !got.Equal(rel, 0) {
		t.Errorf("Collect mismatch")
	}
}
