package frel

import (
	"math"
	"testing"

	"repro/internal/fuzzy"
)

func xRel(tuples ...Tuple) *Relation {
	r := NewRelation(NewSchema("R", Attribute{"X", KindNumber}))
	r.Append(tuples...)
	return r
}

func TestSortByDefinition31(t *testing.T) {
	r := xRel(
		NewTuple(1, Num(fuzzy.Interval(30, 35))),
		NewTuple(1, Num(fuzzy.Interval(20, 28))),
		NewTuple(1, Num(fuzzy.Interval(20, 35))),
	)
	if err := r.SortBy("X"); err != nil {
		t.Fatal(err)
	}
	want := []fuzzy.Trapezoid{fuzzy.Interval(20, 28), fuzzy.Interval(20, 35), fuzzy.Interval(30, 35)}
	for i, w := range want {
		if r.Tuples[i].Values[0].Num != w {
			t.Errorf("tuple %d = %v, want %v", i, r.Tuples[i].Values[0], w)
		}
	}
}

func TestSortByUnknownAttr(t *testing.T) {
	if err := xRel().SortBy("Y"); err == nil {
		t.Errorf("SortBy(Y): want error")
	}
}

func TestDedupMax(t *testing.T) {
	r := NewRelation(NewSchema("R", Attribute{"NAME", KindString}))
	r.Append(
		NewTuple(0.3, Str("Ann")),
		NewTuple(0.7, Str("Ann")),
		NewTuple(0.7, Str("Betty")),
		NewTuple(0.2, Str("Ann")),
	)
	r.DedupMax()
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Tuples[0].Values[0].Str != "Ann" || r.Tuples[0].D != 0.7 {
		t.Errorf("tuple 0 = %v, want Ann with 0.7", r.Tuples[0])
	}
	if r.Tuples[1].Values[0].Str != "Betty" || r.Tuples[1].D != 0.7 {
		t.Errorf("tuple 1 = %v, want Betty with 0.7", r.Tuples[1])
	}
}

func TestThreshold(t *testing.T) {
	r := xRel(
		NewTuple(0.0, Crisp(1)),
		NewTuple(0.3, Crisp(2)),
		NewTuple(0.6, Crisp(3)),
	)
	r.Threshold(Cut{Z: 0.5})
	if r.Len() != 1 || r.Tuples[0].Values[0].Num.A != 3 {
		t.Errorf("Threshold(>= 0.5) = %v", r.Tuples)
	}

	r2 := xRel(NewTuple(0, Crisp(1)), NewTuple(0.001, Crisp(2)))
	r2.Threshold(Cut{})
	if r2.Len() != 1 {
		t.Errorf("Threshold(>= 0) should drop D=0 tuples, got %v", r2.Tuples)
	}
}

// TestCutStrictness: a tuple at exactly z survives D >= z and not D > z,
// and Floor turns either cut into one ">=" comparison that agrees with
// Admits at z, just below it and just above it.
func TestCutStrictness(t *testing.T) {
	for _, z := range []float64{0.5, 0.1, 1} {
		below, above := math.Nextafter(z, 0), math.Nextafter(z, 2)
		for _, c := range []struct {
			cut                 Cut
			atZ, belowZ, aboveZ bool
		}{
			{Cut{Z: z}, true, false, true},
			{Cut{Z: z, Strict: true}, false, false, true},
		} {
			for _, d := range []struct {
				d    float64
				want bool
			}{{z, c.atZ}, {below, c.belowZ}, {above, c.aboveZ}} {
				if got := c.cut.Admits(d.d); got != d.want {
					t.Errorf("%v admits %v: %v, want %v", c.cut, d.d, got, d.want)
				}
				if got := d.d > 0 && d.d >= c.cut.Floor(); got != d.want {
					t.Errorf("%v: %v >= Floor() %v is %v, want %v", c.cut, d.d, c.cut.Floor(), got, d.want)
				}
			}
		}
	}
	r := xRel(NewTuple(0.5, Crisp(1)), NewTuple(0.7, Crisp(2)))
	r.Threshold(Cut{Z: 0.5, Strict: true})
	if r.Len() != 1 || r.Tuples[0].D != 0.7 {
		t.Errorf("Threshold(> 0.5) = %v", r.Tuples)
	}
	if (Cut{}).Admits(0) || !(Cut{Strict: true}).Admits(math.SmallestNonzeroFloat64) {
		t.Error("the trivial cuts must keep exactly the positive degrees")
	}
	z := 0.1
	z += 0.2 // 0.30000000000000004: the rendering must not round it
	if got := (Cut{Z: z, Strict: true}).String(); got != "> 0.30000000000000004" {
		t.Errorf("String() = %q", got)
	}
}

func TestRelationEqual(t *testing.T) {
	a := xRel(NewTuple(0.5, Crisp(1)), NewTuple(0.8, Crisp(2)))
	b := xRel(NewTuple(0.8, Crisp(2)), NewTuple(0.5, Crisp(1)))
	if !a.Equal(b, 1e-9) {
		t.Errorf("order-insensitive equality failed")
	}
	c := xRel(NewTuple(0.5, Crisp(1)), NewTuple(0.7, Crisp(2)))
	if a.Equal(c, 1e-9) {
		t.Errorf("degrees differ; Equal should be false")
	}
	if !a.Equal(c, 0.2) {
		t.Errorf("degrees within tolerance; Equal should be true")
	}
	d := xRel(NewTuple(0.5, Crisp(1)))
	if a.Equal(d, 1e-9) {
		t.Errorf("cardinalities differ; Equal should be false")
	}
}

func TestRelationEqualIgnoresDuplicatesAndZero(t *testing.T) {
	a := xRel(NewTuple(0.5, Crisp(1)), NewTuple(0.3, Crisp(1)), NewTuple(0, Crisp(9)))
	b := xRel(NewTuple(0.5, Crisp(1)))
	if !a.Equal(b, 1e-9) {
		t.Errorf("Equal should compare the max-degree fuzzy sets")
	}
}

func TestRelationClone(t *testing.T) {
	a := xRel(NewTuple(0.5, Crisp(1)))
	b := a.Clone()
	b.Tuples[0].D = 0.9
	b.Tuples[0].Values[0] = Crisp(7)
	if a.Tuples[0].D != 0.5 || a.Tuples[0].Values[0].Num.A != 1 {
		t.Errorf("Clone is not deep: %v", a.Tuples[0])
	}
}

func TestTupleConcatProject(t *testing.T) {
	a := NewTuple(0.5, Crisp(1), Str("x"))
	b := NewTuple(0.8, Crisp(2))
	c := a.Concat(b, 0.4)
	if len(c.Values) != 3 || c.D != 0.4 {
		t.Errorf("Concat = %v", c)
	}
	p := c.Project([]int{2, 0})
	if len(p.Values) != 2 || p.Values[0].Num.A != 2 || p.Values[1].Num.A != 1 || p.D != 0.4 {
		t.Errorf("Project = %v", p)
	}
}

func TestTupleString(t *testing.T) {
	got := NewTuple(0.7, Str("Ann"), Crisp(35)).String()
	want := `("Ann", 35 | D=0.7)`
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
