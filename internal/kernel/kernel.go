// Package kernel is the engine's one predicate evaluator, the
// compile-to-closures stage between the planner and the batch executor. It
// specializes a physical plan's predicate and trapezoid-degree evaluation
// into fused, capture-free closures: each compiled step captures only the
// values fixed at compile time (the degree function chosen for its
// operator, resolved column indexes, constant operands), so the hot loop
// runs with no per-tuple interface dispatch and no per-tuple allocation. A
// Program fuses a conjunction over one input into a single loop over the
// batch (filters, HAVING, DELETE); a PairProgram (pair.go) evaluates the
// conjuncts of a join or anti-join over a pair of rows, for the merge
// operators over either window; Coalesce (morsel.go)
// packs atomic join ranges into morsels for the pull-queue scheduler.
//
// Every step calls the closed-form degree functions of Section 2.2
// (fuzzy.Eq, fuzzy.Le, frel.Degree, ...), the ones the naive evaluator
// (core/naive.go) reaches through its own closures, so engine degrees are
// bit-identical to the oracle's by construction — the engine = naive
// differential suites hold them to zero tolerance.
package kernel

import (
	"fmt"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// Operand is one side of a compiled predicate step: either a column of the
// input tuple (Col >= 0) or a constant resolved at compile time (Col < 0).
type Operand struct {
	Col   int
	Const frel.Value
}

// Column returns the operand reading column i.
func Column(i int) Operand { return Operand{Col: i} }

// Constant returns the operand yielding the fixed value v.
func Constant(v frel.Value) Operand { return Operand{Col: -1, Const: v} }

// StepKind distinguishes the predicate families a step can compile.
type StepKind int

// The step kinds: an order comparison (=, <>, <, <=, >, >=) and the NEAR
// similarity predicate with a tolerance trapezoid.
const (
	StepCompare StepKind = iota
	StepNear
)

// Step is one predicate of a filter chain in kernel-consumable form.
type Step struct {
	Kind        StepKind
	Op          fuzzy.Op        // StepCompare only
	Tol         fuzzy.Trapezoid // StepNear only
	Left, Right Operand
}

// stepFn evaluates one compiled step against a tuple's value row.
type stepFn func(vals []frel.Value) float64

// Program is a compiled filter chain: the fused form of a sequence of
// predicates evaluated as one loop with min-combination.
type Program struct {
	steps []stepFn
}

// Len returns the number of compiled steps.
func (p *Program) Len() int { return len(p.steps) }

// degreeFunc maps an operator to its closed-form trapezoid degree
// function — the identical function frel.Degree's switch dispatches to
// (the naive evaluator's path), bound once at compile time instead.
func degreeFunc(op fuzzy.Op) (func(u, v fuzzy.Trapezoid) float64, error) {
	switch op {
	case fuzzy.OpEq:
		return fuzzy.Eq, nil
	case fuzzy.OpNe:
		return fuzzy.Ne, nil
	case fuzzy.OpLt:
		return fuzzy.Lt, nil
	case fuzzy.OpLe:
		return fuzzy.Le, nil
	case fuzzy.OpGt:
		return fuzzy.Gt, nil
	case fuzzy.OpGe:
		return fuzzy.Ge, nil
	default:
		return nil, fmt.Errorf("kernel: unknown operator %v", op)
	}
}

// load builds the value getter of an operand.
func (o Operand) load() func(vals []frel.Value) frel.Value {
	if o.Col >= 0 {
		i := o.Col
		return func(vals []frel.Value) frel.Value { return vals[i] }
	}
	v := o.Const
	return func([]frel.Value) frel.Value { return v }
}

// compileStep specializes one step into its closure.
func compileStep(s Step) (stepFn, error) {
	left, right := s.Left.load(), s.Right.load()
	switch s.Kind {
	case StepCompare:
		deg, err := degreeFunc(s.Op)
		if err != nil {
			return nil, err
		}
		op := s.Op
		return func(vals []frel.Value) float64 {
			a, b := left(vals), right(vals)
			if a.Kind == frel.KindNumber && b.Kind == frel.KindNumber {
				return deg(a.Num, b.Num)
			}
			// Mixed or string kinds: fall back to the generic value rule
			// (crisp string comparison; kind mismatch is degree 0).
			return frel.Degree(op, a, b)
		}, nil
	case StepNear:
		tol := s.Tol
		if !tol.Valid() {
			return nil, fmt.Errorf("kernel: invalid NEAR tolerance %v", tol)
		}
		return func(vals []frel.Value) float64 {
			a, b := left(vals), right(vals)
			if a.Kind != frel.KindNumber || b.Kind != frel.KindNumber {
				return 0
			}
			return fuzzy.ApproxEq(a.Num, b.Num, tol)
		}, nil
	default:
		return nil, fmt.Errorf("kernel: unknown step kind %d", s.Kind)
	}
}

// Compile specializes the steps of a filter chain into a fused Program.
func Compile(steps []Step) (*Program, error) {
	p := &Program{steps: make([]stepFn, 0, len(steps))}
	for _, s := range steps {
		fn, err := compileStep(s)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, fn)
	}
	return p, nil
}

// RunBatch evaluates the fused chain over a batch, writing each tuple's
// combined degree min(D, d₁, d₂, ...) into degs[i], and returns the number
// of degree evaluations performed. The first step is evaluated on every
// tuple; later steps only on tuples still above zero — exactly the tuples
// a chain of one-predicate filters would hand to its next filter.
func (p *Program) RunBatch(batch []frel.Tuple, degs []float64) int64 {
	if len(p.steps) == 0 {
		for i := range batch {
			degs[i] = batch[i].D
		}
		return 0
	}
	var evals int64
	first := p.steps[0]
	for i := range batch {
		d := batch[i].D
		if g := first(batch[i].Values); g < d {
			d = g
		}
		degs[i] = d
	}
	evals += int64(len(batch))
	for _, step := range p.steps[1:] {
		for i := range batch {
			d := degs[i]
			if d <= 0 {
				continue
			}
			evals++
			if g := step(batch[i].Values); g < d {
				degs[i] = g
			}
		}
	}
	return evals
}
