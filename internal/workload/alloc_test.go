package workload

import (
	"fmt"
	"testing"

	"repro/internal/fsql"
)

// TestFoldedQueryAllocs is the end-to-end allocation gate of the folded
// sweeps: a whole statement over catalog heaps — plan, heap scans of the
// cached sorted copies, kernel sweep with the answer's reduction folded
// in, duplicate elimination, threshold — over 10 000 outer tuples must
// stay at arena level, at most 0.05
// allocations per outer tuple, for the join (N), anti-join (JX) and
// group-aggregate (JA) classes. A per-pair or per-tuple allocation
// anywhere on the path (a key string, a projected row, a map per group)
// costs at least one per tuple and trips it. Skipped under -race, which
// inflates allocation counts.
func TestFoldedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gen := func(name string, tuples int, seed int64) Params {
		return Params{Name: name, Tuples: tuples, TupleBytes: baseTupleBytes, Fanout: 7, Width: 5, Jitter: 0.5, Seed: seed}
	}
	r, err := Generate(gen("R", 10000, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(gen("S", 10000, 2))
	if err != nil {
		t.Fatal(err)
	}
	env := memEnv(t, r, s)
	outer := float64(r.Len())
	for _, class := range []string{"N", "JX", "JA"} {
		q, err := fsql.ParseQuery(fmt.Sprintf(classQueries[class], " WITH D >= 0.5"))
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		eval := func() {
			rel, err := env.EvalUnnested(q)
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
