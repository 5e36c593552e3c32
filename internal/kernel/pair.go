package kernel

import (
	"fmt"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// PairOperand is one side of a compiled two-input (join) predicate step:
// a column of the left tuple (Side 0), of the right tuple (Side 1), or a
// constant (Side -1).
type PairOperand struct {
	Side  int
	Col   int
	Const frel.Value
}

// LeftColumn returns the operand reading column i of the left input.
func LeftColumn(i int) PairOperand { return PairOperand{Side: 0, Col: i} }

// RightColumn returns the operand reading column i of the right input.
func RightColumn(i int) PairOperand { return PairOperand{Side: 1, Col: i} }

// PairConstant returns the operand yielding the fixed value v.
func PairConstant(v frel.Value) PairOperand { return PairOperand{Side: -1, Const: v} }

// PairStep is one conjunct of a join's residual predicate in
// kernel-consumable form. Neg compiles the complemented degree 1-d, the
// form the > ALL anti-join uses for its inverted link term.
type PairStep struct {
	Kind        StepKind
	Op          fuzzy.Op
	Tol         fuzzy.Trapezoid
	Neg         bool
	Left, Right PairOperand
}

// pairFn evaluates one compiled conjunct against a pair of value rows.
type pairFn func(l, r []frel.Value) float64

// PairProgram is a compiled conjunction of join predicates.
type PairProgram struct {
	steps []pairFn
}

// Len returns the number of compiled conjuncts.
func (p *PairProgram) Len() int { return len(p.steps) }

// load builds the value getter of a pair operand.
func (o PairOperand) load() (func(l, r []frel.Value) frel.Value, error) {
	switch o.Side {
	case 0:
		i := o.Col
		return func(l, _ []frel.Value) frel.Value { return l[i] }, nil
	case 1:
		i := o.Col
		return func(_, r []frel.Value) frel.Value { return r[i] }, nil
	case -1:
		v := o.Const
		return func(_, _ []frel.Value) frel.Value { return v }, nil
	default:
		return nil, fmt.Errorf("kernel: unknown operand side %d", o.Side)
	}
}

// compilePairStep specializes one conjunct into its closure.
func compilePairStep(s PairStep) (pairFn, error) {
	left, err := s.Left.load()
	if err != nil {
		return nil, err
	}
	right, err := s.Right.load()
	if err != nil {
		return nil, err
	}
	var eval pairFn
	switch s.Kind {
	case StepCompare:
		deg, err := degreeFunc(s.Op)
		if err != nil {
			return nil, err
		}
		op := s.Op
		eval = func(l, r []frel.Value) float64 {
			a, b := left(l, r), right(l, r)
			if a.Kind == frel.KindNumber && b.Kind == frel.KindNumber {
				return deg(a.Num, b.Num)
			}
			return frel.Degree(op, a, b)
		}
	case StepNear:
		tol := s.Tol
		if !tol.Valid() {
			return nil, fmt.Errorf("kernel: invalid NEAR tolerance %v", tol)
		}
		eval = func(l, r []frel.Value) float64 {
			a, b := left(l, r), right(l, r)
			if a.Kind != frel.KindNumber || b.Kind != frel.KindNumber {
				return 0
			}
			return fuzzy.ApproxEq(a.Num, b.Num, tol)
		}
	default:
		return nil, fmt.Errorf("kernel: unknown step kind %d", s.Kind)
	}
	if s.Neg {
		inner := eval
		eval = func(l, r []frel.Value) float64 { return 1 - inner(l, r) }
	}
	return eval, nil
}

// CompilePair specializes the conjuncts of a join's residual predicate.
func CompilePair(steps []PairStep) (*PairProgram, error) {
	p := &PairProgram{steps: make([]pairFn, 0, len(steps))}
	for _, s := range steps {
		fn, err := compilePairStep(s)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, fn)
	}
	return p, nil
}

// EvalAnd returns the min-combined conjunction degree over a pair of value
// rows, 1 for the empty conjunction. Later conjuncts cannot raise a
// minimum, so it stops as soon as the running minimum is 0 or below
// floor: a result at or above floor is the conjunction's exact degree, a
// result below it only says the degree is below it too. Pass floor 0 for
// the exact degree. Operators charge one degree evaluation per call,
// whatever the number of conjuncts.
func (p *PairProgram) EvalAnd(l, r []frel.Value, floor float64) float64 {
	d := 1.0
	for _, step := range p.steps {
		if g := step(l, r); g < d {
			d = g
			if d <= 0 || d < floor {
				break
			}
		}
	}
	return d
}
