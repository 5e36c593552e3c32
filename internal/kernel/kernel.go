// Package kernel is the engine's one predicate compiler, the
// compile-to-closures stage between the planner and the batch executor.
// Every rewrite evaluates the same thing: a min-conjunction of Section 2.2
// degrees d(X θ Y) and NEAR, sometimes over one tuple (a selection, HAVING,
// a DELETE condition) and sometimes over a candidate pair (a join step's
// residual conjuncts, the anti-join's penalty). Compile specializes such a
// conjunction into a Program of fused, capture-free closures over a left
// and a right row: each compiled step captures only the values fixed at
// compile time (the degree function chosen for its operator, resolved
// column indexes, constant operands), so the hot loop runs with no
// per-tuple interface dispatch and no per-tuple allocation. A Program has
// two entry points: RunBatch grades a batch of tuples step by step, with
// no right row (filters, HAVING, DELETE), and a Program bound to the
// columns of two inputs (Bind) grades one pair of their tuples with
// EvalAnd (the merge operators over either window).
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

// Operand is one side of a compiled predicate step: a column of the left
// row (Side 0), of the right row (Side 1), or a constant resolved at
// compile time (Side -1).
type Operand struct {
	Side  int
	Col   int
	Const frel.Value
}

// Column returns the operand reading column i of the left row, the only
// row a RunBatch step sees.
func Column(i int) Operand { return Operand{Side: 0, Col: i} }

// RightColumn returns the operand reading column i of the right row.
func RightColumn(i int) Operand { return Operand{Side: 1, Col: i} }

// Constant returns the operand yielding the fixed value v.
func Constant(v frel.Value) Operand { return Operand{Side: -1, Const: v} }

// StepKind distinguishes the predicate families a step can compile.
type StepKind int

// The step kinds: an order comparison (=, <>, <, <=, >, >=) and the NEAR
// similarity predicate with a tolerance trapezoid.
const (
	StepCompare StepKind = iota
	StepNear
)

// Step is one conjunct in kernel-consumable form. Neg compiles the
// complemented degree 1-d, the form the > ALL anti-join uses for its
// inverted link term.
type Step struct {
	Kind        StepKind
	Op          fuzzy.Op        // StepCompare only
	Tol         fuzzy.Trapezoid // StepNear only
	Neg         bool
	Left, Right Operand
}

// stepFn evaluates one compiled step against a left and a right value row:
// the row form RunBatch runs, with no right row.
type stepFn func(l, r []frel.Value) float64

// Program is a compiled conjunction: the fused form of a sequence of
// predicates combined by min. It keeps its steps for Bind.
type Program struct {
	steps []stepFn
	src   []Step
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
func (o Operand) load() (func(l, r []frel.Value) frel.Value, error) {
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

// compileStep specializes one step into its closure.
func compileStep(s Step) (stepFn, error) {
	left, err := s.Left.load()
	if err != nil {
		return nil, err
	}
	right, err := s.Right.load()
	if err != nil {
		return nil, err
	}
	var eval stepFn
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
			// Mixed or string kinds: fall back to the generic value rule
			// (crisp string comparison; kind mismatch is degree 0).
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

// Compile specializes the steps of a conjunction into a fused Program.
func Compile(steps []Step) (*Program, error) {
	p := &Program{steps: make([]stepFn, 0, len(steps)), src: append([]Step(nil), steps...)}
	for _, s := range steps {
		fn, err := compileStep(s)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, fn)
	}
	return p, nil
}

// RunBatch evaluates the fused chain over a batch, each tuple as the left
// row with no right row, writing each tuple's combined degree
// min(D, d₁, d₂, ...) into degs[i], and returns the number of degree
// evaluations performed. The first step is evaluated on every tuple;
// later steps only on tuples still above zero — exactly the tuples a
// chain of one-predicate filters would hand to its next filter.
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
		if g := first(batch[i].Values, nil); g < d {
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
			if g := step(batch[i].Values, nil); g < d {
				degs[i] = g
			}
		}
	}
	return evals
}

// Bound is a Program bound to the columns of two inputs, the pair entry of
// the merge operators: EvalAnd grades tuple o of the left columns with
// tuple k of the right ones, reading their values in place. A step over
// two numeric operands calls its degree function on the trapezoids
// directly; any other runs the value rule of the row entry (frel.Degree),
// so both entries are bit-identical. Binding allocates a closure per step,
// once per sweep; evaluating allocates nothing.
type Bound struct {
	steps []pairFn
}

// pairFn evaluates one bound step for tuple o of the left columns and
// tuple k of the right ones.
type pairFn func(o, k int) float64

// Bind binds the program to a left and a right input held as columns. A
// column an operand reads must be one the columns hold (right may be nil
// when no step reads the right row).
func (p *Program) Bind(left, right *frel.Columns) (*Bound, error) {
	b := &Bound{steps: make([]pairFn, 0, len(p.src))}
	for _, s := range p.src {
		fn, err := bindStep(s, left, right)
		if err != nil {
			return nil, err
		}
		b.steps = append(b.steps, fn)
	}
	return b, nil
}

// EvalAnd returns the min-combined conjunction degree over tuple o of the
// left columns and tuple k of the right ones, 1 for the empty
// conjunction. Later conjuncts cannot raise a minimum, so it stops as
// soon as the running minimum is 0 or below floor: a result at or above
// floor is the conjunction's exact degree, a result below it only says
// the degree is below it too. Pass floor 0 for the exact degree.
// Operators charge one degree evaluation per call, whatever the number of
// conjuncts.
func (b *Bound) EvalAnd(o, k int, floor float64) float64 {
	d := 1.0
	for _, step := range b.steps {
		if g := step(o, k); g < d {
			d = g
			if d <= 0 || d < floor {
				break
			}
		}
	}
	return d
}

// colOperand is an operand bound to a column of the left (side 0) or the
// right (side 1) columns, or a constant (side −1).
type colOperand struct {
	side int
	num  []fuzzy.Trapezoid // the numeric column; nil for a string one
	str  []string
	c    frel.Value
}

func bindOperand(op Operand, left, right *frel.Columns) (colOperand, error) {
	x := colOperand{side: op.Side}
	var cols *frel.Columns
	switch op.Side {
	case 0:
		cols = left
	case 1:
		cols = right
	case -1:
		x.c = op.Const
		return x, nil
	default:
		return x, fmt.Errorf("kernel: unknown operand side %d", op.Side)
	}
	if cols == nil || op.Col < 0 || op.Col >= len(cols.Num) {
		return x, fmt.Errorf("kernel: operand reads column %d of side %d, which the bound columns do not hold", op.Col, op.Side)
	}
	x.num, x.str = cols.Num[op.Col], cols.Str[op.Col]
	return x, nil
}

func (x *colOperand) numeric() bool {
	if x.side < 0 {
		return x.c.Kind == frel.KindNumber
	}
	return x.num != nil
}

// trap returns a numeric operand's trapezoid for the pair (o, k).
func (x *colOperand) trap(o, k int) fuzzy.Trapezoid {
	switch x.side {
	case 0:
		return x.num[o]
	case 1:
		return x.num[k]
	}
	return x.c.Num
}

// value returns the operand's value for the pair (o, k).
func (x *colOperand) value(o, k int) frel.Value {
	i := o
	switch x.side {
	case -1:
		return x.c
	case 1:
		i = k
	}
	if x.num != nil {
		return frel.Num(x.num[i])
	}
	return frel.Str(x.str[i])
}

// bindStep specializes one step, validated by Compile, into its closure
// over two columns.
func bindStep(s Step, left, right *frel.Columns) (pairFn, error) {
	a, err := bindOperand(s.Left, left, right)
	if err != nil {
		return nil, err
	}
	b, err := bindOperand(s.Right, left, right)
	if err != nil {
		return nil, err
	}
	numeric := a.numeric() && b.numeric()
	var eval pairFn
	switch s.Kind {
	case StepCompare:
		deg, err := degreeFunc(s.Op)
		if err != nil {
			return nil, err
		}
		if numeric {
			eval = func(o, k int) float64 { return deg(a.trap(o, k), b.trap(o, k)) }
		} else {
			op := s.Op
			eval = func(o, k int) float64 { return frel.Degree(op, a.value(o, k), b.value(o, k)) }
		}
	case StepNear:
		tol := s.Tol
		if numeric {
			eval = func(o, k int) float64 { return fuzzy.ApproxEq(a.trap(o, k), b.trap(o, k), tol) }
		} else {
			eval = func(int, int) float64 { return 0 }
		}
	default:
		return nil, fmt.Errorf("kernel: unknown step kind %d", s.Kind)
	}
	if s.Neg {
		inner := eval
		eval = func(o, k int) float64 { return 1 - inner(o, k) }
	}
	return eval, nil
}

// The three names below serve benchmark/trace.go, which times compiling
// a join residual through them; other code uses Step, Column and Compile.

// PairStep is Step.
type PairStep = Step

// LeftColumn is Column.
func LeftColumn(i int) Operand { return Column(i) }

// CompilePair is Compile.
func CompilePair(steps []Step) (*Program, error) { return Compile(steps) }
