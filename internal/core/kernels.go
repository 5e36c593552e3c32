package core

import (
	"fmt"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/kernel"
)

// This file bridges the planner's predicate IR to internal/kernel, the
// engine's one predicate compiler: it resolves operands (operand.go) and
// emits the flat left-column/right-column/constant step form the kernel
// compiler specializes. Every condition an engine operator evaluates comes
// through here, so a bridge error — an unresolvable reference, an
// undefined linguistic term, an unbound '?' — is the statement's error.

// kernelSteps resolves a conjunction into kernel steps. Each operand
// resolves in the schemas in order — the left row's, then the right
// row's, when a join passes two — or is a literal settled against the
// opposite operand's kind.
func (e *Env) kernelSteps(preds []fsql.Predicate, schemas ...*frel.Schema) ([]kernel.Step, error) {
	steps := make([]kernel.Step, 0, len(preds))
	for _, p := range preds {
		l, r, err := e.resolvePair(p.Left, p.Right, schemas...)
		if err != nil {
			return nil, err
		}
		s := kernel.Step{Left: kernelOperand(l), Right: kernelOperand(r)}
		switch p.Kind {
		case fsql.PredCompare:
			s.Kind, s.Op = kernel.StepCompare, p.Op
		case fsql.PredNear:
			s.Kind, s.Tol = kernel.StepNear, p.Tol
		default:
			return nil, fmt.Errorf("core: predicate kind %v has no kernel form", p.Kind)
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// kernelOperand maps a resolved operand to the kernel's form: a settled
// literal is a constant, a reference a column of the row its schema
// resolved in.
func kernelOperand(info operandInfo) kernel.Operand {
	if info.isConst {
		return kernel.Constant(info.constVal)
	}
	return kernel.Operand{Side: info.side, Col: info.col}
}

// compileKernel compiles a conjunction over the given schemas (see
// kernelSteps) into a kernel program.
func (e *Env) compileKernel(preds []fsql.Predicate, schemas ...*frel.Schema) (*kernel.Program, error) {
	steps, err := e.kernelSteps(preds, schemas...)
	if err != nil {
		return nil, err
	}
	return kernel.Compile(steps)
}
