package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
)

// TestEvalContextCancelled: a cancelled context refuses evaluation up
// front, for both evaluators and for Session.ExecContext.
func TestEvalContextCancelled(t *testing.T) {
	r := frel.NewRelation(frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber}))
	r.Append(frel.NewTuple(1, frel.Crisp(1)))
	e := memEnv(r)
	q, err := fsql.ParseQuery("SELECT R.X FROM R")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := e.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range []*ExecStats{nil, {}} {
		if _, err := e.Eval(ctx, p, es); !errors.Is(err, context.Canceled) {
			t.Errorf("Eval(es=%v): err = %v, want context.Canceled", es, err)
		}
		if _, err := e.EvalNaive(ctx, q, es); !errors.Is(err, context.Canceled) {
			t.Errorf("EvalNaive(es=%v): err = %v, want context.Canceled", es, err)
		}
	}

	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecContext: err = %v, want context.Canceled", err)
	}
}

// TestEvalContextMidQueryCancel: cancelling during evaluation surfaces the
// context error through the leaf scans (exercised with a nested query the
// naive evaluator re-scans per outer tuple).
func TestEvalContextMidQueryCancel(t *testing.T) {
	mk := func(name string, n int) *frel.Relation {
		r := frel.NewRelation(frel.NewSchema(name, frel.Attribute{Name: "X", Kind: frel.KindNumber}))
		for i := 0; i < n; i++ {
			r.Append(frel.NewTuple(1, frel.Crisp(float64(i))))
		}
		return r
	}
	e := memEnv(mk("R", 2000), mk("S", 2000))
	q, err := fsql.ParseQuery("SELECT R.X FROM R WHERE R.X IN (SELECT S.X FROM S)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Let the evaluation start, then pull the plug.
		for i := 0; i < 1000; i++ {
		}
		cancel()
	}()
	_, evalErr := e.EvalNaive(ctx, q, nil)
	<-done
	if evalErr != nil && !errors.Is(evalErr, context.Canceled) {
		t.Errorf("mid-query cancel: err = %v, want nil or context.Canceled", evalErr)
	}
}
