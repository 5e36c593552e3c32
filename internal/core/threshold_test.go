package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
)

// numRel builds a relation of crisp numeric columns named attrs, one
// tuple per row: the tuple's degree first, then its values.
func numRel(name string, attrs []string, rows ...[]float64) *frel.Relation {
	as := make([]frel.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = frel.Attribute{Name: a, Kind: frel.KindNumber}
	}
	r := frel.NewRelation(frel.NewSchema(name, as...))
	for _, row := range rows {
		vals := make([]frel.Value, len(row)-1)
		for i, v := range row[1:] {
			vals[i] = frel.Crisp(v)
		}
		r.Append(frel.NewTuple(row[0], vals...))
	}
	return r
}

// answerDegrees maps every answer tuple, written as its space-separated
// crisp values, to its degree.
func answerDegrees(rel *frel.Relation) map[string]float64 {
	m := map[string]float64{}
	for _, t := range rel.Tuples {
		var vals []string
		for _, v := range t.Values {
			vals = append(vals, strconv.FormatFloat(v.Num.A, 'g', -1, 64))
		}
		m[strings.Join(vals, " ")] = t.D
	}
	return m
}

// sameAnswer requires rel to hold exactly the tuples of want, at
// bit-identical degrees.
func sameAnswer(t *testing.T, name string, rel *frel.Relation, want map[string]float64) {
	t.Helper()
	got := answerDegrees(rel)
	if len(got) != len(want) {
		t.Errorf("%s: answer %v, want %v", name, got, want)
		return
	}
	for k, d := range want {
		if g, ok := got[k]; !ok || g != d {
			t.Errorf("%s: answer %v, want %v", name, got, want)
			return
		}
	}
}

// analyzedLabels runs q under EXPLAIN ANALYZE and returns every operator
// of the tree as "op [label]".
func analyzedLabels(t *testing.T, env *Env, q *fsql.Select) (*frel.Relation, []string) {
	t.Helper()
	es := &ExecStats{}
	rel, err := evalQ(env, q, es)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(s *exec.StatsSnapshot)
	walk = func(s *exec.StatsSnapshot) {
		out = append(out, s.Op+" ["+s.Label+"]")
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(es.Plan())
	return rel, out
}

// TestFloorStaysOut pins the places the push-threshold rule must not put
// a floor, each on data where a floor there would change the answer:
// an aggregate's member set (JA COUNT: an inner member below z still
// counts), a block with aggregate items, GROUP BY or HAVING (a pair below
// z still counts and its group still reaches z through another pair),
// and the inner side of a NOT IN (an inner tuple of low µS lowers an
// outer tuple to 1 − µS, a degree still above z). Every answer is
// hand-computed, must agree with the naive evaluation, and EXPLAIN and
// EXPLAIN ANALYZE must show no floor on the protected operator.
func TestFloorStaysOut(t *testing.T) {
	r := numRel("R", []string{"K", "A", "B"}, []float64{1, 2, 1, 5}, []float64{0.25, 3, 1, 6})
	s := numRel("S", []string{"A", "B"}, []float64{1, 1, 10}, []float64{0.25, 1, 20}, []float64{0.25, 1, 5})
	inner := func(l string) bool { return strings.Contains(l, "scan S") || strings.Contains(l, "[S") }
	join := func(l string) bool { return strings.Contains(l, "join") }
	for _, tc := range []struct {
		name, query string
		want        map[string]float64
		// protected reports whether an EXPLAIN line or an EXPLAIN ANALYZE
		// operator belongs to the part of the plan the floor must not
		// reach.
		protected func(line string) bool
	}{{
		// T(r) for K=2 is {10: 1, 20: 0.25, 5: 0.25}: COUNT 3, and 2 <= 3.
		// Without its members of degree 0.25 COUNT would be 1, and 2 <= 1
		// fails. K=3 is below the threshold itself.
		name:      "JA COUNT member set",
		query:     `SELECT R.K FROM R WHERE R.K <= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A) WITH D >= 0.5`,
		want:      map[string]float64{"2": 1},
		protected: inner,
	}, {
		// Group A=1 holds K=2 (its pairs at 1, 0.25, 0.25) and K=3 (pairs
		// at 0.25): COUNT 2 at group degree 1. Dropping the pairs below
		// 0.5 would leave COUNT 1.
		name:      "GROUPBY with aggregate item",
		query:     `SELECT R.A, COUNT(R.K) FROM R, S WHERE R.A = S.A GROUPBY R.A WITH D >= 0.5`,
		want:      map[string]float64{"1 2": 1},
		protected: join,
	}, {
		name:      "HAVING with aggregate item",
		query:     `SELECT R.A, COUNT(R.K) FROM R, S WHERE R.A = S.A GROUPBY R.A HAVING R.A >= 1 WITH D >= 0.5`,
		want:      map[string]float64{"1 2": 1},
		protected: join,
	}, {
		name:      "aggregate item without GROUPBY",
		query:     `SELECT COUNT(R.K) FROM R, S WHERE R.A = S.A WITH D >= 0.5`,
		want:      map[string]float64{"2": 1},
		protected: join,
	}, {
		// K=2 (B=5) meets S(1, 5) at µS 0.25: 1 − 0.25 = 0.75 >= 0.5.
		// With the inner tuples below 0.5 dropped, K=2 would keep degree 1.
		name:      "NOT IN inner side",
		query:     `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A) WITH D >= 0.5`,
		want:      map[string]float64{"2": 0.75},
		protected: inner,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			env := memEnv(r, s)
			q, err := fsql.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := env.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, ops := analyzedLabels(t, env, q)
			sameAnswer(t, "engine", got, tc.want)
			sameAnswer(t, "naive", naive, tc.want)
			p, err := env.PlanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for _, line := range append(p.Lines(), ops...) {
				if tc.protected(line) {
					seen++
					if strings.Contains(line, "floor(") {
						t.Errorf("floor on a protected operator: %s", line)
					}
				}
			}
			if seen == 0 {
				t.Fatalf("no protected operator in the plan:\n%s\n%s", strings.Join(p.Lines(), "\n"), strings.Join(ops, "\n"))
			}
		})
	}
}

// TestStrictThreshold: a tuple at exactly z is in the answer of WITH
// D >= z and not in that of WITH D > z, for the engine (whose floored
// operators must drop exactly what the threshold drops) and the naive
// evaluator alike, and a DELETE's condition at exactly z deletes under
// >= z only.
func TestStrictThreshold(t *testing.T) {
	r := numRel("R", []string{"K", "A", "B"}, []float64{0.5, 1, 1, 1}, []float64{0.7, 2, 1, 2}, []float64{1, 3, 1, 3})
	s := numRel("S", []string{"A", "B"}, []float64{1, 1, 1}, []float64{0.5, 1, 3}, []float64{1, 1, 2})
	for _, tc := range []struct {
		query      string
		atZ, above map[string]float64 // answers under >= 0.5 and > 0.5
	}{
		// J: K=1 joins at its own degree 0.5, K=2 at 0.7, K=3 at µS 0.5.
		{`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`,
			map[string]float64{"1": 0.5, "2": 0.7, "3": 0.5}, map[string]float64{"2": 0.7}},
		// JX: K=3 meets S(1, 3) at µS 0.5, so 1 − 0.5 = 0.5; K=1 and K=2
		// meet a tuple of µS 1 and drop to 0.
		{`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`,
			map[string]float64{"3": 0.5}, map[string]float64{}},
		// JALL: 3 > 3 fails against S(1, 3) of µS 0.5, so K=3 drops to
		// 1 − 0.5; K=1 and K=2 fail against a tuple of µS 1.
		{`SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`,
			map[string]float64{"3": 0.5}, map[string]float64{}},
		// JA COUNT: every T(r) holds 1, 3 and 2, and K <= 3 for all three,
		// which keep their own degrees.
		{`SELECT R.K FROM R WHERE R.K <= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`,
			map[string]float64{"1": 0.5, "2": 0.7, "3": 1}, map[string]float64{"2": 0.7, "3": 1}},
	} {
		for _, with := range []string{" WITH D >= 0.5", " WITH D > 0.5"} {
			want := tc.atZ
			if strings.Contains(with, "D > ") {
				want = tc.above
			}
			q, err := fsql.ParseQuery(tc.query + with)
			if err != nil {
				t.Fatal(err)
			}
			env := memEnv(r, s)
			naive, err := env.EvalNaive(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := evalQ(env, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, "engine: "+tc.query+with, engine, want)
			sameAnswer(t, "naive: "+tc.query+with, naive, want)
		}
	}

	// DELETE: 'about 35' is medium young to exactly 0.5, 24 to 0.8.
	for _, tc := range []struct {
		with string
		want map[string]float64
	}{{" WITH D >= 0.5", map[string]float64{}}, {" WITH D > 0.5", map[string]float64{"2": 1}}} {
		sess, err := OpenSession(t.TempDir(), 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := execScript(sess, `
			CREATE TABLE W (ID NUMBER, AGE NUMBER);
			INSERT INTO W VALUES (1, 24);
			INSERT INTO W VALUES (2, 'about 35');
			DELETE FROM W WHERE W.AGE = 'medium young'`+tc.with); err != nil {
			t.Fatal(err)
		}
		answers, err := execScript(sess, `SELECT W.ID FROM W`)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "DELETE"+tc.with, answers[0], tc.want)
		sess.Close()
	}
}
