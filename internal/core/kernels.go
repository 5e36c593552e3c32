package core

import (
	"fmt"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/kernel"
)

// This file bridges the planner's predicate IR to the compiled degree
// kernels of internal/kernel, the engine's one predicate evaluator: it
// resolves operands (operand.go) and emits the flat column/constant step
// form the kernel compiler specializes. Every condition an engine operator
// evaluates comes through here, so a bridge error — an unresolvable
// reference, an undefined linguistic term, an unbound '?' — is the
// statement's error.

// kernelStep converts one resolved single-schema predicate into a kernel
// step.
func kernelStep(p fsql.Predicate, l, r operandInfo) (kernel.Step, error) {
	s := kernel.Step{}
	switch p.Kind {
	case fsql.PredCompare:
		s.Kind, s.Op = kernel.StepCompare, p.Op
	case fsql.PredNear:
		s.Kind, s.Tol = kernel.StepNear, p.Tol
	default:
		return kernel.Step{}, fmt.Errorf("core: predicate kind %v has no kernel form", p.Kind)
	}
	var err error
	if s.Left, err = kernelOperand(l); err != nil {
		return kernel.Step{}, err
	}
	if s.Right, err = kernelOperand(r); err != nil {
		return kernel.Step{}, err
	}
	return s, nil
}

func kernelOperand(info operandInfo) (kernel.Operand, error) {
	switch {
	case info.isConst:
		return kernel.Constant(info.constVal), nil
	case info.side >= 0:
		return kernel.Column(info.col), nil
	default:
		return kernel.Operand{}, fmt.Errorf("core: operand has no kernel form")
	}
}

// compileKernelProgram compiles a conjunction of single-relation
// predicates over schema into a fused kernel program.
func (e *Env) compileKernelProgram(schema *frel.Schema, preds []fsql.Predicate) (*kernel.Program, error) {
	steps := make([]kernel.Step, 0, len(preds))
	for _, p := range preds {
		l, r, err := e.resolvePair(p.Left, p.Right, schema)
		if err != nil {
			return nil, err
		}
		s, err := kernelStep(p, l, r)
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
	}
	return kernel.Compile(steps)
}

func kernelPairOperand(info operandInfo) (kernel.PairOperand, error) {
	switch {
	case info.isConst:
		return kernel.PairConstant(info.constVal), nil
	case info.side == 0:
		return kernel.LeftColumn(info.col), nil
	case info.side == 1:
		return kernel.RightColumn(info.col), nil
	default:
		return kernel.PairOperand{}, fmt.Errorf("core: operand has no kernel form")
	}
}

// pairSteps resolves two-input conjuncts into kernel pair steps: each
// operand resolves in the left input first, then the right, or is a
// literal settled against the opposite operand's kind.
func (e *Env) pairSteps(left, right *frel.Schema, preds []fsql.Predicate) ([]kernel.PairStep, error) {
	steps := make([]kernel.PairStep, 0, len(preds))
	for _, p := range preds {
		l, r, err := e.resolvePair(p.Left, p.Right, left, right)
		if err != nil {
			return nil, err
		}
		s := kernel.PairStep{}
		switch p.Kind {
		case fsql.PredCompare:
			s.Kind, s.Op = kernel.StepCompare, p.Op
		case fsql.PredNear:
			s.Kind, s.Tol = kernel.StepNear, p.Tol
		default:
			return nil, fmt.Errorf("core: predicate kind %v has no kernel form", p.Kind)
		}
		if s.Left, err = kernelPairOperand(l); err != nil {
			return nil, err
		}
		if s.Right, err = kernelPairOperand(r); err != nil {
			return nil, err
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// compilePairProgram compiles two-input conjuncts into a pair program.
func (e *Env) compilePairProgram(left, right *frel.Schema, preds []fsql.Predicate) (*kernel.PairProgram, error) {
	steps, err := e.pairSteps(left, right, preds)
	if err != nil {
		return nil, err
	}
	return kernel.CompilePair(steps)
}
