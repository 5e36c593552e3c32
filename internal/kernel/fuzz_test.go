package kernel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// fuzzWidth is the width of the left and right rows FuzzProgram grades.
const fuzzWidth = 3

// fuzzValues are the row values and constants FuzzProgram draws from
// besides the crisp numbers a byte spells: both zeros, crisp points,
// trapezoids touching at a knee or with a negative-zero corner, and
// strings, so every step meets numeric, string and mixed-kind pairs.
var fuzzValues = func() []frel.Value {
	nz := math.Copysign(0, -1)
	return []frel.Value{
		frel.Crisp(0), frel.Crisp(nz), frel.Crisp(1), frel.Crisp(2.5), frel.Crisp(-3),
		frel.Num(fuzzy.Tri(0, 5, 10)), frel.Num(fuzzy.Interval(1, 2)),
		frel.Num(fuzzy.Trap(-3, -1, 1, 3)), frel.Num(fuzzy.Trap(4, 6, 8, 10)),
		frel.Num(fuzzy.Trapezoid{A: nz, B: 1, C: 1, D: 2}),
		frel.Num(fuzzy.Trapezoid{A: nz, B: nz, C: 0, D: 4}),
		frel.Str(""), frel.Str("ann"), frel.Str("bob"),
	}
}()

// fuzzTols are the NEAR tolerances FuzzProgram draws from, the last two
// invalid: Compile must refuse exactly those.
var fuzzTols = func() []fuzzy.Trapezoid {
	nz := math.Copysign(0, -1)
	return []fuzzy.Trapezoid{
		fuzzy.Tolerance(0, 0), fuzzy.Tolerance(1, 3), fuzzy.Tolerance(0, 2),
		{A: nz, B: nz, C: 0, D: 0}, fuzzy.Trap(-2, -1, 0, 1),
		{A: 3, B: 2, C: 1, D: 0}, {A: math.NaN(), B: 0, C: 0, D: 1},
	}
}()

// fuzzBytes hands out the fuzzer's bytes one at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzValue maps a byte to a value: the high bit spells a crisp number in
// [-16, 16), otherwise it picks from fuzzValues.
func fuzzValue(c byte) frel.Value {
	if c&0x80 != 0 {
		return frel.Crisp(float64(c&0x7f)/4 - 16)
	}
	return fuzzValues[int(c)%len(fuzzValues)]
}

// operand maps a selector and an argument byte to a left column, a right
// column or a constant.
func (b *fuzzBytes) operand() Operand {
	sel, arg := b.next(), b.next()
	switch sel % 3 {
	case 0:
		return Column(int(arg) % fuzzWidth)
	case 1:
		return RightColumn(int(arg) % fuzzWidth)
	default:
		return Constant(fuzzValue(arg))
	}
}

// oracleDegree is one step's degree by the functions the naive evaluator
// reaches: frel.Degree for a comparison, fuzzy.ApproxEq behind its
// numeric-kind guard for NEAR, complemented under Neg.
func oracleDegree(s Step, l, r []frel.Value) float64 {
	get := func(o Operand) frel.Value {
		switch o.Side {
		case 0:
			return l[o.Col]
		case 1:
			return r[o.Col]
		}
		return o.Const
	}
	a, b := get(s.Left), get(s.Right)
	var d float64
	switch {
	case s.Kind == StepCompare:
		d = frel.Degree(s.Op, a, b)
	case a.Kind == frel.KindNumber && b.Kind == frel.KindNumber:
		d = fuzzy.ApproxEq(a.Num, b.Num, s.Tol)
	}
	if s.Neg {
		d = 1 - d
	}
	return d
}

// rowColumns holds one row as columns, each of its value's kind.
func rowColumns(vals []frel.Value) *frel.Columns {
	s := &frel.Schema{}
	for i, v := range vals {
		s.Attrs = append(s.Attrs, frel.Attribute{Name: fmt.Sprint("C", i), Kind: v.Kind})
	}
	c := frel.NewColumns(s, 1)
	c.AppendTuple(frel.Tuple{Values: vals, D: 1})
	return c
}

// evalPair grades the pair of rows l, r through the program bound to them
// as columns.
func evalPair(t *testing.T, prog *Program, l, r []frel.Value, floor float64) float64 {
	t.Helper()
	b, err := prog.Bind(rowColumns(l), rowColumns(r))
	if err != nil {
		t.Fatal(err)
	}
	return b.EvalAnd(0, 0, floor)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzProgram: the bytes choose a left and a right row, a floor, and one
// to four steps (compare operator or NEAR tolerance, Neg, and left,
// right or constant operands). Every compiled step is bit for bit the
// oracle's degree, in the row form RunBatch runs and bound to the rows
// held as columns (Bind); the bound EvalAnd is their min-conjunction,
// exact under any floor it reaches; and a program over the left row alone
// grades a tuple of degree 1 through RunBatch exactly as the bound
// EvalAnd grades its row.
func FuzzProgram(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 0, 0, 0, 1, 0})
	f.Add([]byte{3, 128, 5, 6, 11, 200, 12, 1, 2, 0, 0, 1, 0, 7, 1, 1, 0, 2, 0, 2, 1, 0, 3, 5, 6, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := 1 + int(b.next()%4)
		floor := float64(b.next()) / 255
		l, r := make([]frel.Value, fuzzWidth), make([]frel.Value, fuzzWidth)
		for i := range fuzzWidth {
			l[i], r[i] = fuzzValue(b.next()), fuzzValue(b.next())
		}
		steps := make([]Step, n)
		wantErr, leftOnly := false, true
		for i := range steps {
			c := b.next()
			s := Step{Kind: StepCompare, Op: allOps[int(c>>2)%len(allOps)], Neg: c&2 != 0}
			if c&1 != 0 {
				s.Kind, s.Tol = StepNear, fuzzTols[int(b.next())%len(fuzzTols)]
				wantErr = wantErr || !s.Tol.Valid()
			}
			s.Left, s.Right = b.operand(), b.operand()
			leftOnly = leftOnly && s.Left.Side != 1 && s.Right.Side != 1
			steps[i] = s
		}
		prog, err := Compile(steps)
		if (err != nil) != wantErr {
			t.Fatalf("Compile(%+v): err = %v, want an error: %v", steps, err, wantErr)
		}
		if err != nil {
			return
		}
		want := 1.0
		for i, s := range steps {
			g, og := prog.steps[i](l, r), oracleDegree(s, l, r)
			if !sameBits(g, og) {
				t.Fatalf("step %d %+v over %v, %v: compiled %v, oracle %v", i, s, l, r, g, og)
			}
			if want > 0 && og < want {
				want = og
			}
		}
		lc, rc := rowColumns(l), rowColumns(r)
		bound, err := prog.Bind(lc, rc)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			if g, og := bound.steps[i](0, 0), oracleDegree(s, l, r); !sameBits(g, og) {
				t.Fatalf("bound step %d %+v over %v, %v: %v, oracle %v", i, s, l, r, g, og)
			}
		}
		exact := bound.EvalAnd(0, 0, 0)
		if !sameBits(exact, want) {
			t.Fatalf("EvalAnd = %v, min-conjunction of the oracle's degrees %v", exact, want)
		}
		if got := bound.EvalAnd(0, 0, floor); exact >= floor && !sameBits(got, exact) {
			t.Fatalf("EvalAnd at floor %v = %v, exact degree %v", floor, got, exact)
		}
		if leftOnly {
			degs := make([]float64, 1)
			prog.RunBatch([]frel.Tuple{{Values: l, D: 1}}, degs)
			alone, err := prog.Bind(lc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := alone.EvalAnd(0, 0, 0); !sameBits(degs[0], d) {
				t.Fatalf("RunBatch at D = 1: %v, EvalAnd over the row %v", degs[0], d)
			}
		}
	})
}
