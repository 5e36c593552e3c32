package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsql"
)

// qgen generates random nested Fuzzy SQL queries from the supported
// grammar. Each nesting level uses its own relation (R at the top, then
// S, then T) so bindings stay distinct; correlation predicates reference
// any enclosing level.
type qgen struct {
	rng *rand.Rand
}

// relation metadata: name and its two numeric attributes.
var genRels = []struct {
	name string
	a, b string
}{
	{"R", "R.U", "R.Y"},
	{"S", "S.V", "S.Z"},
	{"T", "T.W", "T.P"},
}

func (g *qgen) numLit() string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%d", g.rng.Intn(24))
	case 1:
		c := g.rng.Intn(20)
		return fmt.Sprintf("TRI(%d, %d, %d)", c, c+2, c+4)
	default:
		c := g.rng.Intn(18)
		return fmt.Sprintf("TRAP(%d, %d, %d, %d)", c, c+1, c+3, c+4)
	}
}

func (g *qgen) cmpOp() string {
	return []string{"=", "<", "<=", ">", ">=", "<>"}[g.rng.Intn(6)]
}

// numAttr picks a numeric attribute of the given level.
func (g *qgen) numAttr(level int) string {
	if g.rng.Intn(2) == 0 {
		return genRels[level].a
	}
	return genRels[level].b
}

// comparePred builds one comparison predicate for a block at the given
// level; it may correlate with any enclosing level.
func (g *qgen) comparePred(level int) string {
	left := g.numAttr(level)
	switch g.rng.Intn(5) {
	case 0: // against a literal
		return fmt.Sprintf("%s %s %s", left, g.cmpOp(), g.numLit())
	case 1: // against the block's other attribute
		return fmt.Sprintf("%s %s %s", genRels[level].a, g.cmpOp(), genRels[level].b)
	case 2: // string equality on TAG
		return fmt.Sprintf("%s.TAG = 't%d'", genRels[level].name, g.rng.Intn(6))
	case 3: // similarity predicate
		if level == 0 {
			return fmt.Sprintf("%s NEAR %s WITHIN %d", left, g.numLit(), 1+g.rng.Intn(5))
		}
		outer := g.rng.Intn(level)
		return fmt.Sprintf("%s NEAR %s WITHIN %d", left, g.numAttr(outer), 1+g.rng.Intn(5))
	default: // correlation with an enclosing level (or literal at top)
		if level == 0 {
			return fmt.Sprintf("%s %s %s", left, g.cmpOp(), g.numLit())
		}
		outer := g.rng.Intn(level)
		return fmt.Sprintf("%s = %s", left, g.numAttr(outer))
	}
}

// block builds the query block at the given level; maxDepth limits
// further nesting.
func (g *qgen) block(level, maxDepth int) string {
	rel := genRels[level]
	item := rel.b
	if level == 0 {
		item = rel.name + ".TAG"
	}

	var preds []string
	for i := g.rng.Intn(3); i > 0; i-- {
		preds = append(preds, g.comparePred(level))
	}
	if level < maxDepth && g.rng.Intn(10) < 7 {
		preds = append(preds, g.subqueryPred(level, maxDepth))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", item, rel.name)
	if len(preds) > 0 {
		b.WriteString(" WHERE " + strings.Join(preds, " AND "))
	}
	return b.String()
}

// subqueryPred builds one nested predicate whose inner block lives at
// level+1.
func (g *qgen) subqueryPred(level, maxDepth int) string {
	inner := g.block(level+1, maxDepth)
	left := g.numAttr(level)
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s IN (%s)", left, inner)
	case 1:
		return fmt.Sprintf("%s NOT IN (%s)", left, inner)
	case 2:
		return fmt.Sprintf("%s %s ALL (%s)", left, g.cmpOp(), inner)
	case 3:
		quant := []string{"ANY", "SOME"}[g.rng.Intn(2)]
		return fmt.Sprintf("%s %s %s (%s)", left, g.cmpOp(), quant, inner)
	case 4:
		agg := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[g.rng.Intn(5)]
		// Wrap the aggregate around the inner block's selected attribute.
		innerRel := genRels[level+1]
		aggInner := strings.Replace(inner, "SELECT "+innerRel.b, fmt.Sprintf("SELECT %s(%s)", agg, innerRel.b), 1)
		return fmt.Sprintf("%s %s (%s)", left, g.cmpOp(), aggInner)
	case 5:
		return fmt.Sprintf("EXISTS (%s)", inner)
	case 6:
		return fmt.Sprintf("NOT EXISTS (%s)", inner)
	default:
		return fmt.Sprintf("%s IN (%s)", left, inner)
	}
}

// TestFuzzEquivalence generates hundreds of random nested queries over
// random databases and checks that the naive nested evaluation and the
// unnested evaluation return identical fuzzy relations — the paper's
// equivalence criterion, across the whole grammar.
func TestFuzzEquivalence(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	rng := rand.New(rand.NewSource(99))
	g := &qgen{rng: rng}
	counts := map[Strategy]int{}
	for i := 0; i < iterations; i++ {
		e := envRS(rng, 8+rng.Intn(10), 8+rng.Intn(10), 6+rng.Intn(8))
		src := g.block(0, 1+rng.Intn(2))
		if rng.Intn(5) == 0 {
			src += fmt.Sprintf(" WITH D >= 0.%d", 1+rng.Intn(8))
		}
		if rng.Intn(6) == 0 {
			src += " ORDER BY D DESC"
			if rng.Intn(2) == 0 {
				src += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(6))
			}
		}
		q, err := fsql.ParseQuery(src)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", src, err)
		}
		strategy := StrategyNaive
		if p, err := e.PlanQuery(q); err == nil {
			strategy = p.Strategy
		}
		counts[strategy]++
		naive, err := e.EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("naive(%q): %v", src, err)
		}
		unnested, err := evalQ(e, q, nil)
		if err != nil {
			t.Fatalf("unnested(%q): %v", src, err)
		}
		if !naive.Equal(unnested, 1e-9) {
			t.Fatalf("equivalence violated (strategy %v) for\n%s\nnaive: %v\nunnested: %v",
				strategy, src, naive.Tuples, unnested.Tuples)
		}
	}
	// The generator must actually exercise the rewrites, not just the
	// naive fallback.
	for _, s := range []Strategy{StrategyChain, StrategyAntiJoin, StrategyGroupAgg, StrategyAllAnti} {
		if counts[s] == 0 {
			t.Errorf("fuzzer never produced strategy %v (distribution: %v)", s, counts)
		}
	}
	t.Logf("strategy distribution over %d queries: %v", iterations, counts)
}
