package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// kernelTestEnv builds an environment with two relations and a
// linguistic term for the string-literal settlement path.
func kernelTestEnv(t *testing.T) *Env {
	t.Helper()
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i := 0; i < 200; i++ {
		r.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Num(fuzzy.Tri(float64(i%37)-2, float64(i%37), float64(i%37)+2)),
			frel.Crisp(float64(i%11))))
	}
	s := frel.NewRelation(frel.NewSchema("S",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber}))
	for i := 0; i < 150; i++ {
		s.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Num(fuzzy.Tri(float64(i%41)-3, float64(i%41), float64(i%41)+3))))
	}
	env := memEnv(r, s)
	if err := env.DefineTerm("medium", fuzzy.Trap(10, 15, 22, 27)); err != nil {
		t.Fatal(err)
	}
	return env
}

// kernelQueries are queries whose leaves carry local predicates
// (comparison, NEAR, linguistic term).
var kernelQueries = []string{
	`SELECT R.K FROM R WHERE R.A > 12 AND R.B <= 7`,
	`SELECT R.K FROM R WHERE R.A NEAR 18 WITHIN 6`,
	`SELECT R.K FROM R WHERE R.A = "medium"`,
	`SELECT R.K FROM R, S WHERE R.A = S.A AND R.B > 3`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.K FROM S WHERE S.A = R.A)`,
}

// TestKernelCompilationMatchesInterpreted checks every kernel query
// returns the answer of the naive evaluator, whose predicates are
// interpreted closures, at zero tolerance, and that compiled kernels ran.
func TestKernelCompilationMatchesInterpreted(t *testing.T) {
	for _, qs := range kernelQueries {
		q, err := fsql.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		env := kernelTestEnv(t)
		got, err := evalQ(env, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if env.Work.KernelTuples.Load() == 0 {
			t.Errorf("%s: compiled kernels did not fire", qs)
		}
		want, err := kernelTestEnv(t).EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: naive: %v", qs, err)
		}
		if !got.Equal(want, 0) {
			t.Errorf("%s: answers differ at zero tolerance: %d vs %d tuples",
				qs, got.Len(), want.Len())
		}
	}
}

// TestKernelFusedNodeInAnalyze checks EXPLAIN ANALYZE reports the fused
// filter chain as a kernel(fused) node with its tuple counter.
func TestKernelFusedNodeInAnalyze(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.A > 12 AND R.B <= 7`)
	if err != nil {
		t.Fatal(err)
	}
	env := kernelTestEnv(t)
	es := &ExecStats{}
	if _, err := evalQ(env, q, es); err != nil {
		t.Fatal(err)
	}
	snap := es.Plan()
	kf := snap.Find("kernel(fused)")
	if kf == nil {
		t.Fatalf("no kernel(fused) node in:\n%s", snap.Render())
	}
	if kf.KernelTuples == 0 {
		t.Fatalf("kernel(fused) node reports no kernel tuples: %+v", kf)
	}
	if snap.Find("filter") != nil {
		t.Fatalf("filter node alongside fused kernel in:\n%s", snap.Render())
	}
}

// TestKernelBridgeErrors: the merge operators and the pushed-down filters
// have no form but the compiled one, so a bridge error is the statement's
// error, with its type: an undefined linguistic term is ErrUnknownTerm in
// a pushed-down filter, in a merge-join conjunct and in an anti-join
// conjunct, and an unbound '?' names itself.
func TestKernelBridgeErrors(t *testing.T) {
	env := kernelTestEnv(t)
	for _, qs := range []string{
		`SELECT R.K FROM R WHERE R.A = "nosuchterm"`,
		`SELECT R.K FROM R, S WHERE R.A = S.A AND R.B = "nosuchterm"`,
		`SELECT R.K FROM R WHERE R.B IN (SELECT S.K FROM S WHERE S.A = R.A AND S.K = "nosuchterm")`,
		`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.K FROM S WHERE S.A = R.A AND S.K = "nosuchterm")`,
	} {
		q, err := fsql.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := env.PlanQuery(q); err != nil || p.Strategy == StrategyNaive {
			t.Fatalf("%s: not unnested", qs)
		}
		if _, err := evalQ(env, q, nil); !errors.Is(err, ErrUnknownTerm) {
			t.Errorf("%s: error %v, want ErrUnknownTerm", qs, err)
		}
	}
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.A > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalQ(env, q, nil); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Errorf("unbound parameter: error %v", err)
	}
}
