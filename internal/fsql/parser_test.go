package fsql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

func mustQuery(t *testing.T, src string) *Select {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

func TestParseQuery1(t *testing.T) {
	// Query 1 of the paper (Section 2.2).
	q := mustQuery(t, `
		SELECT F.NAME, M.NAME
		FROM F, M
		WHERE F.AGE = M.AGE AND M.INCOME > 'medium high'`)
	if len(q.Items) != 2 || q.Items[0].Ref != "F.NAME" || q.Items[1].Ref != "M.NAME" {
		t.Errorf("items = %v", q.Items)
	}
	if len(q.From) != 2 || q.From[0].Name != "F" || q.From[1].Name != "M" {
		t.Errorf("from = %v", q.From)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	p0 := q.Where[0]
	if p0.Kind != PredCompare || p0.Left.Ref != "F.AGE" || p0.Op != fuzzy.OpEq || p0.Right.Ref != "M.AGE" {
		t.Errorf("pred 0 = %v", p0)
	}
	p1 := q.Where[1]
	if p1.Kind != PredCompare || p1.Op != fuzzy.OpGt || p1.Right.Kind != OpdString || p1.Right.Str != "medium high" {
		t.Errorf("pred 1 = %v", p1)
	}
}

func TestParseQuery2Nested(t *testing.T) {
	// Query 2 of the paper (Section 2.3), a type N nested query.
	q := mustQuery(t, `
		SELECT F.NAME
		FROM F
		WHERE F.AGE = 'medium young' AND
		      F.INCOME IN
		      (SELECT M.INCOME
		       FROM M
		       WHERE M.AGE = 'middle age')`)
	if len(q.Where) != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	in := q.Where[1]
	if in.Kind != PredIn || in.Left.Ref != "F.INCOME" || in.Sub == nil {
		t.Fatalf("IN pred = %v", in)
	}
	if in.Sub.Items[0].Ref != "M.INCOME" || in.Sub.From[0].Name != "M" {
		t.Errorf("subquery = %v", in.Sub)
	}
}

func TestParseIsInSpelling(t *testing.T) {
	// The paper writes "R.Y is in (...)".
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y is in (SELECT S.Z FROM S)`)
	if q.Where[0].Kind != PredIn {
		t.Errorf("kind = %v", q.Where[0].Kind)
	}
	q = mustQuery(t, `SELECT R.X FROM R WHERE R.Y is not in (SELECT S.Z FROM S)`)
	if q.Where[0].Kind != PredNotIn {
		t.Errorf("kind = %v", q.Where[0].Kind)
	}
}

func TestParseQuery4NotIn(t *testing.T) {
	// Query 4 of the paper (Section 5), type JX.
	q := mustQuery(t, `
		SELECT R.NAME
		FROM EMP_SALES R
		WHERE R.INCOME NOT IN
		      (SELECT S.INCOME
		       FROM EMP_RESEARCH S
		       WHERE S.AGE = R.AGE)`)
	if q.From[0].Name != "EMP_SALES" || q.From[0].Alias != "R" {
		t.Errorf("from = %v", q.From)
	}
	p := q.Where[0]
	if p.Kind != PredNotIn || p.Sub.From[0].Alias != "S" {
		t.Errorf("pred = %v", p)
	}
	inner := p.Sub.Where[0]
	if inner.Kind != PredCompare || inner.Left.Ref != "S.AGE" || inner.Right.Ref != "R.AGE" {
		t.Errorf("inner pred = %v", inner)
	}
}

func TestParseQuery5Aggregate(t *testing.T) {
	// Query 5 of the paper (Section 6), type JA.
	q := mustQuery(t, `
		SELECT R.NAME
		FROM CITIES_REGION_A R
		WHERE R.AVE_HOME_INCOME >
		      (SELECT MAX(S.AVE_HOME_INCOME)
		       FROM CITIES_REGION_B S
		       WHERE S.POPULATION = R.POPULATION)`)
	p := q.Where[0]
	if p.Kind != PredScalarSub || p.Op != fuzzy.OpGt {
		t.Fatalf("pred = %v", p)
	}
	item := p.Sub.Items[0]
	if !item.HasAgg || item.Agg != fuzzy.AggMax || item.Ref != "S.AVE_HOME_INCOME" {
		t.Errorf("agg item = %v", item)
	}
}

func TestParseQuantifiers(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want Quantifier
	}{
		{`SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)`, QuantAll},
		{`SELECT R.X FROM R WHERE R.Y = ANY (SELECT S.Z FROM S)`, QuantAny},
		{`SELECT R.X FROM R WHERE R.Y >= SOME (SELECT S.Z FROM S)`, QuantSome},
	} {
		q := mustQuery(t, tc.src)
		p := q.Where[0]
		if p.Kind != PredQuant || p.Quant != tc.want {
			t.Errorf("%s: pred = %v", tc.src, p)
		}
	}
}

func TestParseExists(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)`)
	if q.Where[0].Kind != PredExists || q.Where[0].Sub == nil {
		t.Errorf("pred = %v", q.Where[0])
	}
	// The paper's singular spelling EXIST.
	q = mustQuery(t, `SELECT R.X FROM R WHERE EXIST (SELECT S.Z FROM S)`)
	if q.Where[0].Kind != PredExists {
		t.Errorf("pred = %v", q.Where[0])
	}
	q = mustQuery(t, `SELECT R.X FROM R WHERE NOT EXISTS (SELECT S.Z FROM S)`)
	if q.Where[0].Kind != PredNotExists {
		t.Errorf("pred = %v", q.Where[0])
	}
	// EXISTS combined with other conjuncts, and in String round trip.
	q = mustQuery(t, `SELECT R.X FROM R WHERE R.Y > 3 AND NOT EXISTS (SELECT S.Z FROM S) AND R.X < 9`)
	if len(q.Where) != 3 || q.Where[1].Kind != PredNotExists {
		t.Errorf("where = %v", q.Where)
	}
	q2 := mustQuery(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip mismatch: %s", q)
	}
}

// TestParseNotBacktrack: a NOT that is not followed by EXISTS must not
// consume input (it belongs to an operand-led predicate only as NOT IN).
func TestParseNotBacktrack(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S)`)
	if q.Where[0].Kind != PredNotIn {
		t.Errorf("pred = %v", q.Where[0])
	}
	if _, err := ParseQuery(`SELECT R.X FROM R WHERE NOT R.Y = 3`); err == nil {
		t.Errorf("general NOT is unsupported: want error")
	}
}

func TestParseWithClause(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WITH D >= 0.5`)
	if !q.HasWith || q.With != (frel.Cut{Z: 0.5}) {
		t.Errorf("with = %v %v", q.HasWith, q.With)
	}
	q = mustQuery(t, `SELECT R.X FROM R WITH D > 0`)
	if !q.HasWith || q.With != (frel.Cut{Strict: true}) {
		t.Errorf("with = %v %v", q.HasWith, q.With)
	}
	if _, err := ParseQuery(`SELECT R.X FROM R WITH D >= 1.5`); err == nil {
		t.Errorf("threshold out of range: want error")
	}
}

func TestParseGroupBySpellings(t *testing.T) {
	q := mustQuery(t, `SELECT R.X, COUNT(R.Y) FROM R GROUPBY R.X`)
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "R.X" {
		t.Errorf("GROUPBY = %v", q.GroupBy)
	}
	q = mustQuery(t, `SELECT R.X FROM R GROUP BY R.X, R.Y HAVING R.X > 3`)
	if len(q.GroupBy) != 2 || len(q.Having) != 1 {
		t.Errorf("GROUP BY = %v HAVING = %v", q.GroupBy, q.Having)
	}
}

func TestParseDistinct(t *testing.T) {
	q := mustQuery(t, `SELECT DISTINCT R.X FROM R`)
	if !q.Distinct {
		t.Errorf("Distinct = false")
	}
}

func TestParseFuzzyLiterals(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y = TRAP(20, 25, 30, 35) AND R.Z = TRI(1, 2, 3) AND R.W = ABOUT(35, 5) AND R.V = INTERVAL(10, 20)`)
	want := []fuzzy.Trapezoid{
		fuzzy.Trap(20, 25, 30, 35),
		fuzzy.Tri(1, 2, 3),
		fuzzy.About(35, 5),
		fuzzy.Interval(10, 20),
	}
	for i, w := range want {
		if got := q.Where[i].Right.Num; got != w {
			t.Errorf("literal %d = %v, want %v", i, got, w)
		}
	}
}

func TestParseAboutDefaultSpread(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y = ABOUT(50)`)
	if got := q.Where[0].Right.Num; got != fuzzy.About(50, 5) {
		t.Errorf("ABOUT(50) = %v, want spread 5 (10%%)", got)
	}
	q = mustQuery(t, `SELECT R.X FROM R WHERE R.Y = ABOUT(2)`)
	if got := q.Where[0].Right.Num; got != fuzzy.About(2, 1) {
		t.Errorf("ABOUT(2) = %v, want spread floor 1", got)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y = -5 AND R.Z > TRAP(-4, -3, -2, -1)`)
	if got := q.Where[0].Right.Num; got != fuzzy.Crisp(-5) {
		t.Errorf("literal = %v", got)
	}
	if got := q.Where[1].Right.Num; got != fuzzy.Trap(-4, -3, -2, -1) {
		t.Errorf("literal = %v", got)
	}
}

func TestParseChainQuery(t *testing.T) {
	// Query 6 of the paper (Section 8): a 3-block chain query.
	q := mustQuery(t, `
		SELECT R1.X1
		FROM R1
		WHERE R1.A = 1 AND R1.Y1 IN
		      (SELECT R2.X2
		       FROM R2
		       WHERE R2.U2 = R1.U1 AND R2.X2 IN
		             (SELECT R3.X3
		              FROM R3
		              WHERE R3.V3 = R2.V2 AND R3.W3 = R1.W1))`)
	lvl2 := q.Where[1].Sub
	if lvl2 == nil {
		t.Fatalf("missing level-2 block")
	}
	lvl3 := lvl2.Where[1].Sub
	if lvl3 == nil {
		t.Fatalf("missing level-3 block")
	}
	if lvl3.Where[1].Right.Ref != "R1.W1" {
		t.Errorf("level-3 correlation = %v", lvl3.Where[1])
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := ParseStatement(`CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("statement = %T", st)
	}
	if ct.Name != "F" || len(ct.Attrs) != 4 {
		t.Errorf("create = %v", ct)
	}
	if ct.Attrs[1] != (frel.Attribute{Name: "NAME", Kind: frel.KindString}) {
		t.Errorf("attr 1 = %v", ct.Attrs[1])
	}
	if _, err := ParseStatement(`CREATE TABLE F (X BLOB)`); err == nil {
		t.Errorf("unknown type: want error")
	}
}

func TestParseDropTable(t *testing.T) {
	st, err := ParseStatement(`DROP TABLE F`)
	if err != nil {
		t.Fatal(err)
	}
	if dt, ok := st.(*DropTable); !ok || dt.Name != "F" {
		t.Errorf("statement = %v", st)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := ParseStatement(`INSERT INTO M VALUES (201, 'Allen', 24, 'about 25K')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "M" || len(ins.Values) != 4 || ins.Degree != 1 {
		t.Errorf("insert = %v", ins)
	}
	if ins.Values[0].Num != fuzzy.Crisp(201) || ins.Values[1].Str != "Allen" {
		t.Errorf("values = %v", ins.Values)
	}

	st, err = ParseStatement(`INSERT INTO M VALUES (1, TRAP(1,2,3,4)) DEGREE 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	ins = st.(*Insert)
	if ins.Degree != 0.6 || ins.Values[1].Num != fuzzy.Trap(1, 2, 3, 4) {
		t.Errorf("insert = %v", ins)
	}

	if _, err := ParseStatement(`INSERT INTO M VALUES (R.X)`); err == nil {
		t.Errorf("reference in VALUES: want error")
	}
	if _, err := ParseStatement(`INSERT INTO M VALUES (1) DEGREE 0`); err == nil {
		t.Errorf("degree 0: want error")
	}
}

func TestParseDefineTerm(t *testing.T) {
	st, err := ParseStatement(`DEFINE TERM 'medium young' AS TRAP(20, 25, 30, 35)`)
	if err != nil {
		t.Fatal(err)
	}
	dt := st.(*DefineTerm)
	if dt.Name != "medium young" || dt.Value != fuzzy.Trap(20, 25, 30, 35) {
		t.Errorf("define = %v", dt)
	}
	if _, err := ParseStatement(`DEFINE TERM 'x' AS 5`); err == nil {
		t.Errorf("non-fuzzy-literal term: want error")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE R (X NUMBER);
		INSERT INTO R VALUES (1);
		-- a comment
		SELECT R.X FROM R;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
	if _, ok := stmts[2].(*Select); !ok {
		t.Errorf("statement 2 = %T", stmts[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM R`,
		`SELECT R.X`,
		`SELECT R.X FROM`,
		`SELECT R.X FROM R WHERE`,
		`SELECT R.X FROM R WHERE R.Y`,
		`SELECT R.X FROM R WHERE R.Y ~ 3`,
		`SELECT R.X FROM R WHERE R.Y IN R`,
		`SELECT R.X FROM R WITH D = 0.5`,
		`SELECT R.X FROM R trailing junk`,
		`SELECT R.X FROM R WHERE R.Y = TRAP(1,2)`,
		`SELECT R.X FROM R WHERE R.Y = TRAP(4,3,2,1)`,
		`SELECT R.X FROM R WHERE R.Y = 'unterminated`,
		`INSERT INTO`,
		`CREATE TABLE`,
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): want error", src)
		}
	}
}

// TestParseRefusesNaN: no NaN (or infinite) corner or degree gets in
// through SQL text. NaN and Inf do not lex as numbers, so where a number
// is due they are words: an attribute reference in a predicate, an error
// in a fuzzy literal, an INSERT value or a DEGREE; a number beyond the
// float range is a range error; and every fuzzy literal is checked by
// fuzzy.NewTrap, ABOUT's overflowing x ± spread included.
func TestParseRefusesNaN(t *testing.T) {
	for _, src := range []string{
		`SELECT R.X FROM R WHERE R.Y = 1e999`,
		`SELECT R.X FROM R WHERE R.Y = -1e999`,
		`SELECT R.X FROM R WHERE R.Y = TRAP(0, 1, 2, 1e999)`,
		`SELECT R.X FROM R WHERE R.Y = TRAP(NaN, 1, 2, 3)`,
		`SELECT R.X FROM R WHERE R.Y = TRI(0, NaN, 2)`,
		`SELECT R.X FROM R WHERE R.Y = INTERVAL(0, Inf)`,
		`SELECT R.X FROM R WHERE R.Y = ABOUT(1.7e308)`,
		`SELECT R.X FROM R WHERE R.Y = ABOUT(1e308, 1e308)`,
		`INSERT INTO R VALUES (NaN)`,
		`INSERT INTO R VALUES (1e999)`,
		`INSERT INTO R VALUES (1) DEGREE NaN`,
		`DEFINE TERM 'x' AS TRI(0, NaN, 2)`,
		`DEFINE TERM 'x' AS ABOUT(1.7e308)`,
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): want error", src)
		}
	}
	for _, src := range []string{
		`SELECT R.X FROM R WHERE R.Y = NaN`,
		`SELECT R.X FROM R WHERE R.Y = Inf AND R.Y IN (SELECT S.Y FROM S WHERE S.Z = nan)`,
	} {
		st, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("ParseStatement(%q): %v", src, err)
		}
		walkOperands(st, func(o *Operand) {
			if o.Kind == OpdNumber {
				t.Errorf("%q: a word parsed as the number %v", src, o.Num)
			}
		})
	}
}

func TestParseQuotedStringEscapes(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.NAME = 'O''Brien'`)
	if got := q.Where[0].Right.Str; got != "O'Brien" {
		t.Errorf("string = %q", got)
	}
	q = mustQuery(t, `SELECT R.X FROM R WHERE R.NAME = "medium young"`)
	if got := q.Where[0].Right.Str; got != "medium young" {
		t.Errorf("string = %q", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')`,
		`SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U) WITH D >= 0.25`,
		`SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME NOT IN (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)`,
	}
	for _, src := range srcs {
		q1 := mustQuery(t, src)
		q2 := mustQuery(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip mismatch:\n%s\n%s", q1, q2)
		}
	}
}

func TestAggNameAsPlainRef(t *testing.T) {
	// An identifier that happens to be an aggregate name but is not
	// followed by '(' is a plain reference.
	q := mustQuery(t, `SELECT COUNT FROM R`)
	if q.Items[0].HasAgg || q.Items[0].Ref != "COUNT" {
		t.Errorf("item = %v", q.Items[0])
	}
}

func TestStatementStrings(t *testing.T) {
	for _, src := range []string{
		`CREATE TABLE F (ID NUMBER, NAME STRING)`,
		`DROP TABLE F`,
		`INSERT INTO F VALUES (1, 'x') DEGREE 0.5`,
		`DEFINE TERM 'young' AS TRAP(0,0,22,30)`,
	} {
		st, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// Each statement's rendering must re-parse to the same rendering.
		st2, err := ParseStatement(st.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", st.String(), err)
		}
		if st.String() != st2.String() {
			t.Errorf("round trip: %q vs %q", st.String(), st2.String())
		}
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	st, err := ParseStatement(`CREATE INDEX r_b ON R (B)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndex)
	if ci.Name != "r_b" || ci.Table != "R" || ci.Attr != "B" {
		t.Errorf("create index = %+v", ci)
	}
	if got := ci.String(); got != `CREATE INDEX r_b ON R (B)` {
		t.Errorf("String = %q", got)
	}

	// Quoted names survive (and stay quoted when not identifier-shaped).
	st, err = ParseStatement(`CREATE INDEX 'my index' ON S (A)`)
	if err != nil {
		t.Fatal(err)
	}
	ci = st.(*CreateIndex)
	if ci.Name != "my index" {
		t.Errorf("quoted name = %q", ci.Name)
	}
	if got := ci.String(); got != `CREATE INDEX 'my index' ON S (A)` {
		t.Errorf("String = %q", got)
	}
	// A quoted identifier-shaped name renders bare; the rendering is a
	// fixed point after one normalization.
	st, err = ParseStatement(`DROP INDEX "r_b"`)
	if err != nil {
		t.Fatal(err)
	}
	di := st.(*DropIndex)
	if di.Name != "r_b" {
		t.Errorf("name = %q", di.Name)
	}
	if got := di.String(); got != `DROP INDEX r_b` {
		t.Errorf("String = %q", got)
	}

	for _, bad := range []string{
		`CREATE INDEX`,
		`CREATE INDEX i1`,
		`CREATE INDEX i1 ON`,
		`CREATE INDEX i1 ON R`,
		`CREATE INDEX i1 ON R ()`,
		`CREATE INDEX i1 ON R (B`,
		`CREATE INDEX '' ON R (B)`,
		`CREATE VIEW v AS SELECT R.X FROM R`,
		`DROP INDEX`,
		`DROP SEQUENCE s`,
	} {
		if _, err := ParseStatement(bad); err == nil {
			t.Errorf("ParseStatement(%q): want error", bad)
		}
	}
}

func TestLexerComments(t *testing.T) {
	q := mustQuery(t, "SELECT R.X -- comment here\nFROM R")
	if len(q.Items) != 1 {
		t.Errorf("items = %v", q.Items)
	}
}

func TestParseQueryRejectsNonSelect(t *testing.T) {
	if _, err := ParseQuery(`CREATE TABLE R (X NUMBER)`); err == nil {
		t.Errorf("ParseQuery of DDL: want error")
	}
}

func TestParseSemicolonTolerance(t *testing.T) {
	if _, err := ParseQuery(`SELECT R.X FROM R;`); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	stmts, err := ParseScript(`;;SELECT R.X FROM R;;`)
	if err != nil || len(stmts) != 1 {
		t.Errorf("ParseScript = %v, %v", stmts, err)
	}
}

func TestBindingAndTableRefString(t *testing.T) {
	tr := TableRef{Name: "EMP", Alias: "R"}
	if tr.Binding() != "R" || tr.String() != "EMP R" {
		t.Errorf("tr = %q %q", tr.Binding(), tr.String())
	}
	tr = TableRef{Name: "EMP"}
	if tr.Binding() != "EMP" || tr.String() != "EMP" {
		t.Errorf("tr = %q %q", tr.Binding(), tr.String())
	}
}

func TestPredicateStrings(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y = ANY (SELECT S.Z FROM S)`)
	if !strings.Contains(q.String(), "ANY") {
		t.Errorf("String = %q", q.String())
	}
}

func TestParseNear(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R, S WHERE R.Y NEAR S.Z WITHIN 5`)
	p := q.Where[0]
	if p.Kind != PredNear || p.Left.Ref != "R.Y" || p.Right.Ref != "S.Z" {
		t.Fatalf("pred = %v", p)
	}
	if p.Tol != fuzzy.Tolerance(5, 5) {
		t.Errorf("tolerance = %v, want symmetric crisp band 5", p.Tol)
	}

	q = mustQuery(t, `SELECT R.X FROM R WHERE R.Y NEAR 10 WITHIN TRAP(-4, -1, 1, 4)`)
	p = q.Where[0]
	if p.Tol != fuzzy.Trap(-4, -1, 1, 4) {
		t.Errorf("tolerance = %v", p.Tol)
	}

	// Round trip through String.
	q2 := mustQuery(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip mismatch: %s vs %s", q, q2)
	}

	// Errors: missing WITHIN, non-literal tolerance.
	for _, bad := range []string{
		`SELECT R.X FROM R WHERE R.Y NEAR 10`,
		`SELECT R.X FROM R WHERE R.Y NEAR 10 WITHIN R.Z`,
		`SELECT R.X FROM R WHERE R.Y NEAR 10 WITHIN 'five'`,
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

func TestParseOrderByLimit(t *testing.T) {
	q := mustQuery(t, `SELECT R.X FROM R WHERE R.Y > 1 WITH D >= 0.2 ORDER BY D DESC LIMIT 10`)
	if q.OrderBy != "D" || !q.OrderDesc || !q.HasLimit || q.Limit != 10 {
		t.Errorf("shape = %+v", q)
	}
	q = mustQuery(t, `SELECT R.X FROM R ORDER BY R.X ASC`)
	if q.OrderBy != "R.X" || q.OrderDesc {
		t.Errorf("shape = %+v", q)
	}
	q = mustQuery(t, `SELECT R.X FROM R LIMIT 0`)
	if !q.HasLimit || q.Limit != 0 {
		t.Errorf("shape = %+v", q)
	}
	// Round trip.
	q = mustQuery(t, `SELECT R.X FROM R ORDER BY D DESC LIMIT 3`)
	q2 := mustQuery(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip: %s vs %s", q, q2)
	}
	for _, bad := range []string{
		`SELECT R.X FROM R LIMIT -1`,
		`SELECT R.X FROM R LIMIT 2.5`,
		`SELECT R.X FROM R ORDER BY`,
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

func TestParseDelete(t *testing.T) {
	st, err := ParseStatement(`DELETE FROM W WHERE W.AGE = 'medium young' WITH D >= 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	del := st.(*Delete)
	if del.Table != "W" || len(del.Where) != 1 || del.Threshold != (frel.Cut{Z: 0.7}) {
		t.Errorf("delete = %+v", del)
	}
	st, err = ParseStatement(`DELETE FROM W`)
	if err != nil {
		t.Fatal(err)
	}
	del = st.(*Delete)
	if del.Table != "W" || len(del.Where) != 0 || del.Threshold != (frel.Cut{}) {
		t.Errorf("delete = %+v", del)
	}
	// Round trip.
	st2, err := ParseStatement(st.String())
	if err != nil || st.String() != st2.String() {
		t.Errorf("round trip: %v / %v", st, err)
	}
	if _, err := ParseStatement(`DELETE W`); err == nil {
		t.Errorf("missing FROM: want error")
	}
}

// TestWithStrictnessRoundTrip: WITH D > z stays strict through String and
// a re-parse, for SELECT and DELETE, and the threshold renders with every
// digit it needs to parse back to the same float64.
func TestWithStrictnessRoundTrip(t *testing.T) {
	for _, src := range []string{
		`SELECT R.X FROM R WITH D > 0.5`,
		`SELECT R.X FROM R WITH D >= 0.5`,
		`SELECT R.X FROM R WITH D > 0.30000000000000004`,
		`DELETE FROM W WHERE W.A = 1 WITH D > 0.5`,
		`DELETE FROM W WHERE W.A = 1 WITH D >= 0.5`,
		`DELETE FROM W WITH D > 0`,
	} {
		st, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := st.String(); got != src {
			t.Errorf("String() = %q, want %q", got, src)
		}
		st2, err := ParseStatement(st.String())
		if err != nil {
			t.Fatalf("%s: re-parse: %v", src, err)
		}
		var a, b frel.Cut
		switch x := st.(type) {
		case *Select:
			a, b = x.With, st2.(*Select).With
		case *Delete:
			a, b = x.Threshold, st2.(*Delete).Threshold
		}
		if a != b || a.Strict != strings.Contains(src, "D > ") {
			t.Errorf("%s: cut %+v, re-parsed %+v", src, a, b)
		}
	}
}

func TestParseCheckpoint(t *testing.T) {
	st, err := ParseStatement(`CHECKPOINT`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*Checkpoint); !ok {
		t.Fatalf("parsed %T, want *Checkpoint", st)
	}
	if st.String() != "CHECKPOINT" {
		t.Errorf("String = %q", st.String())
	}
	// Round trip and script form.
	stmts, err := ParseScript(`INSERT INTO R VALUES (1); CHECKPOINT; CHECKPOINT;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("script parsed to %d statements", len(stmts))
	}
	if _, ok := stmts[1].(*Checkpoint); !ok {
		t.Errorf("statement 1 = %T", stmts[1])
	}
	if _, err := ParseStatement(`CHECKPOINT NOW`); err == nil {
		t.Errorf("trailing tokens: want error")
	}
}

func TestParseTransactionControl(t *testing.T) {
	cases := []struct {
		sql  string
		want Statement
	}{
		{"BEGIN", &Begin{}},
		{"begin", &Begin{}},
		{"COMMIT", &Commit{}},
		{"ROLLBACK", &Rollback{}},
	}
	for _, c := range cases {
		st, err := ParseStatement(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if fmt.Sprintf("%T", st) != fmt.Sprintf("%T", c.want) {
			t.Errorf("%s parsed to %T, want %T", c.sql, st, c.want)
		}
		if got := st.String(); got != strings.ToUpper(c.sql) {
			t.Errorf("%s String = %q", c.sql, got)
		}
	}
	// Script form: a whole transaction parses statement by statement.
	stmts, err := ParseScript(`BEGIN; INSERT INTO R VALUES (1); COMMIT; BEGIN; ROLLBACK;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 5 {
		t.Fatalf("script parsed to %d statements, want 5", len(stmts))
	}
	if _, ok := stmts[0].(*Begin); !ok {
		t.Errorf("statement 0 = %T, want *Begin", stmts[0])
	}
	if _, ok := stmts[2].(*Commit); !ok {
		t.Errorf("statement 2 = %T, want *Commit", stmts[2])
	}
	if _, ok := stmts[4].(*Rollback); !ok {
		t.Errorf("statement 4 = %T, want *Rollback", stmts[4])
	}
	if _, err := ParseStatement(`BEGIN TRANSACTION`); err == nil {
		t.Errorf("trailing tokens: want error")
	}
}
