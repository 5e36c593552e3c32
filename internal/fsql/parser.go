package fsql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// parser is a recursive-descent parser with one token of lookahead.
type parser struct {
	lx  *lexer
	tok token
	// params counts '?' placeholders, assigning each its ordinal in
	// parse order.
	params int
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// kw reports whether the current token is the given keyword
// (case-insensitive identifier).
func (p *parser) kw(word string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, word)
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(word string) (bool, error) {
	if !p.kw(word) {
		return false, nil
	}
	return true, p.advance()
}

// expectKw consumes the keyword or fails.
func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("fsql: expected %s, got %s", word, p.tok)
	}
	return p.advance()
}

// acceptSym consumes the symbol if present.
func (p *parser) acceptSym(s string) (bool, error) {
	if p.tok.kind != tokSymbol || p.tok.text != s {
		return false, nil
	}
	return true, p.advance()
}

// expectSym consumes the symbol or fails.
func (p *parser) expectSym(s string) error {
	if p.tok.kind != tokSymbol || p.tok.text != s {
		return fmt.Errorf("fsql: expected %q, got %s", s, p.tok)
	}
	return p.advance()
}

// ident consumes an identifier and returns its text.
func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("fsql: expected identifier, got %s", p.tok)
	}
	text := p.tok.text
	return text, p.advance()
}

// number consumes a (possibly negative) numeric literal.
func (p *parser) number() (float64, error) {
	neg := false
	if p.tok.kind == tokSymbol && p.tok.text == "-" {
		neg = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	if p.tok.kind != tokNumber {
		return 0, fmt.Errorf("fsql: expected number, got %s", p.tok)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, fmt.Errorf("fsql: bad number %q: %v", p.tok.text, err)
	}
	if neg {
		// 0-v, not -v: "-0" must parse to positive zero or the literal
		// would re-render as "-0" while comparing equal to 0, breaking
		// the String round-trip invariant.
		v = 0 - v
	}
	return v, p.advance()
}

// ref consumes an (optionally qualified) attribute reference.
func (p *parser) ref() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	ok, err := p.acceptSym(".")
	if err != nil {
		return "", err
	}
	if !ok {
		return first, nil
	}
	second, err := p.ident()
	if err != nil {
		return "", err
	}
	return first + "." + second, nil
}

// ParseQuery parses a single SELECT query.
func ParseQuery(src string) (*Select, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.acceptSym(";"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("fsql: trailing input at %s", p.tok)
	}
	return sel, nil
}

// ParseStatement parses any single statement.
func ParseStatement(src string) (Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if _, err := p.acceptSym(";"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("fsql: trailing input at %s", p.tok)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		// Skip stray semicolons.
		for {
			ok, err := p.acceptSym(";")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if p.tok.kind == tokEOF {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.kw("SELECT"):
		return p.parseSelect()
	case p.kw("EXPLAIN"):
		return p.parseExplain()
	case p.kw("CREATE"):
		return p.parseCreate()
	case p.kw("DROP"):
		return p.parseDrop()
	case p.kw("INSERT"):
		return p.parseInsert()
	case p.kw("DELETE"):
		return p.parseDelete()
	case p.kw("DEFINE"):
		return p.parseDefineTerm()
	case p.kw("CHECKPOINT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Checkpoint{}, nil
	case p.kw("BEGIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Begin{}, nil
	case p.kw("COMMIT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Commit{}, nil
	case p.kw("ROLLBACK"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Rollback{}, nil
	default:
		return nil, fmt.Errorf("fsql: expected a statement, got %s", p.tok)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <select>.
func (p *parser) parseExplain() (Statement, error) {
	if err := p.expectKw("EXPLAIN"); err != nil {
		return nil, err
	}
	analyze, err := p.acceptKw("ANALYZE")
	if err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Explain{Analyze: analyze, Query: sel}, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if ok, err := p.acceptKw("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		sel.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		ok, err := p.acceptSym(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, tr)
		ok, err := p.acceptSym(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if ok, err := p.acceptKw("WHERE"); err != nil {
		return nil, err
	} else if ok {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		sel.Where = preds
	}
	groupBy, err := p.parseOptGroupBy()
	if err != nil {
		return nil, err
	}
	sel.GroupBy = groupBy
	if ok, err := p.acceptKw("HAVING"); err != nil {
		return nil, err
	} else if ok {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		sel.Having = preds
	}
	if ok, err := p.acceptKw("WITH"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw("D"); err != nil {
			return nil, err
		}
		cut, err := p.withThreshold()
		if err != nil {
			return nil, err
		}
		sel.With, sel.HasWith = cut, true
	}
	if ok, err := p.acceptKw("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		ref, err := p.ref()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = ref
		if ok, err := p.acceptKw("DESC"); err != nil {
			return nil, err
		} else if ok {
			sel.OrderDesc = true
		} else if ok, err := p.acceptKw("ASC"); err != nil {
			return nil, err
		} else if ok {
			sel.OrderDesc = false
		}
	}
	if ok, err := p.acceptKw("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if n < 0 || n != float64(int(n)) {
			return nil, fmt.Errorf("fsql: LIMIT expects a non-negative integer, got %g", n)
		}
		sel.Limit = int(n)
		sel.HasLimit = true
	}
	return sel, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if ok, err := p.acceptKw("WHERE"); err != nil {
		return nil, err
	} else if ok {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		del.Where = preds
	}
	if ok, err := p.acceptKw("WITH"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw("D"); err != nil {
			return nil, err
		}
		cut, err := p.withThreshold()
		if err != nil {
			return nil, err
		}
		del.Threshold = cut
	}
	return del, nil
}

// withThreshold parses the rest of a WITH D clause: >= z, or > z (strict).
func (p *parser) withThreshold() (frel.Cut, error) {
	if p.tok.kind != tokOp || (p.tok.text != ">=" && p.tok.text != ">") {
		return frel.Cut{}, fmt.Errorf("fsql: WITH clause expects D >= z or D > z, got %s", p.tok)
	}
	strict := p.tok.text == ">"
	if err := p.advance(); err != nil {
		return frel.Cut{}, err
	}
	z, err := p.number()
	if err != nil {
		return frel.Cut{}, err
	}
	if z < 0 || z > 1 {
		return frel.Cut{}, fmt.Errorf("fsql: WITH threshold %g out of [0, 1]", z)
	}
	return frel.Cut{Z: z, Strict: strict}, nil
}

func (p *parser) parseOptGroupBy() ([]string, error) {
	switch {
	case p.kw("GROUPBY"):
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.kw("GROUP"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	var refs []string
	for {
		r, err := p.ref()
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
		ok, err := p.acceptSym(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			return refs, nil
		}
	}
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.tok.kind == tokIdent {
		if agg, err := fuzzy.ParseAggFunc(p.tok.text); err == nil {
			// Aggregate only if followed by '('.
			save := *p
			saveLx := *p.lx
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			if ok, err := p.acceptSym("("); err != nil {
				return SelectItem{}, err
			} else if ok {
				r, err := p.ref()
				if err != nil {
					return SelectItem{}, err
				}
				if err := p.expectSym(")"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{HasAgg: true, Agg: agg, Ref: r}, nil
			}
			*p.lx = saveLx
			p.tok = save.tok
		}
	}
	r, err := p.ref()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Ref: r}, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	// An alias is a bare identifier that is not a clause keyword.
	if p.tok.kind == tokIdent && !p.isClauseKeyword(p.tok.text) {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = alias
	}
	return tr, nil
}

func (p *parser) isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "GROUPBY", "GROUP", "HAVING", "WITH", "FROM", "SELECT", "ORDER", "LIMIT":
		return true
	default:
		return false
	}
}

func (p *parser) parseConjunction() ([]Predicate, error) {
	var preds []Predicate
	for {
		pr, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		ok, err := p.acceptKw("AND")
		if err != nil {
			return nil, err
		}
		if !ok {
			return preds, nil
		}
	}
}

func (p *parser) parsePredicate() (Predicate, error) {
	// EXISTS / NOT EXISTS have no left operand. The paper's Section 7
	// notes queries with the EXIST quantifier unnest like SOME; both
	// spellings are accepted.
	if p.kw("EXISTS") || p.kw("EXIST") {
		if err := p.advance(); err != nil {
			return Predicate{}, err
		}
		sub, err := p.parseSubquery()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredExists, Sub: sub}, nil
	}
	if p.kw("NOT") {
		save := *p
		saveLx := *p.lx
		if err := p.advance(); err != nil {
			return Predicate{}, err
		}
		if p.kw("EXISTS") || p.kw("EXIST") {
			if err := p.advance(); err != nil {
				return Predicate{}, err
			}
			sub, err := p.parseSubquery()
			if err != nil {
				return Predicate{}, err
			}
			return Predicate{Kind: PredNotExists, Sub: sub}, nil
		}
		*p.lx = saveLx
		p.tok = save.tok
	}
	left, err := p.parseOperand()
	if err != nil {
		return Predicate{}, err
	}
	// X IN (subquery) / X NOT IN (subquery). The paper also writes
	// "is in" / "is not in"; accept the IS prefix.
	if ok, err := p.acceptKw("IS"); err != nil {
		return Predicate{}, err
	} else if ok && !p.kw("IN") && !p.kw("NOT") {
		return Predicate{}, fmt.Errorf("fsql: expected IN or NOT after IS, got %s", p.tok)
	}
	if ok, err := p.acceptKw("IN"); err != nil {
		return Predicate{}, err
	} else if ok {
		sub, err := p.parseSubquery()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredIn, Left: left, Sub: sub}, nil
	}
	if ok, err := p.acceptKw("NOT"); err != nil {
		return Predicate{}, err
	} else if ok {
		if err := p.expectKw("IN"); err != nil {
			return Predicate{}, err
		}
		sub, err := p.parseSubquery()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredNotIn, Left: left, Sub: sub}, nil
	}
	// Similarity predicate: X NEAR Y WITHIN tol. The tolerance is a plain
	// number (a symmetric crisp band) or a fuzzy literal of differences.
	if ok, err := p.acceptKw("NEAR"); err != nil {
		return Predicate{}, err
	} else if ok {
		right, err := p.parseOperand()
		if err != nil {
			return Predicate{}, err
		}
		if err := p.expectKw("WITHIN"); err != nil {
			return Predicate{}, err
		}
		tolOpd, err := p.parseOperand()
		if err != nil {
			return Predicate{}, err
		}
		if tolOpd.Kind != OpdNumber {
			return Predicate{}, fmt.Errorf("fsql: NEAR tolerance must be a number or fuzzy literal, got %s", tolOpd)
		}
		tol := tolOpd.Num
		if tol.IsCrisp() {
			// A plain number w means the symmetric band [-w, +w].
			tol = fuzzy.Tolerance(tol.A, tol.A)
		}
		return Predicate{Kind: PredNear, Left: left, Right: right, Tol: tol}, nil
	}
	if p.tok.kind != tokOp {
		return Predicate{}, fmt.Errorf("fsql: expected comparison operator, got %s", p.tok)
	}
	op, err := fuzzy.ParseOp(p.tok.text)
	if err != nil {
		return Predicate{}, err
	}
	if err := p.advance(); err != nil {
		return Predicate{}, err
	}
	// Quantified subquery.
	for q, name := range map[Quantifier]string{QuantAll: "ALL", QuantAny: "ANY", QuantSome: "SOME"} {
		if ok, err := p.acceptKw(name); err != nil {
			return Predicate{}, err
		} else if ok {
			sub, err := p.parseSubquery()
			if err != nil {
				return Predicate{}, err
			}
			return Predicate{Kind: PredQuant, Left: left, Op: op, Quant: q, Sub: sub}, nil
		}
	}
	// Scalar subquery: op '(' SELECT ... ')'.
	if p.tok.kind == tokSymbol && p.tok.text == "(" {
		sub, err := p.parseSubquery()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredScalarSub, Left: left, Op: op, Sub: sub}, nil
	}
	right, err := p.parseOperand()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Kind: PredCompare, Left: left, Op: op, Right: right}, nil
}

func (p *parser) parseSubquery() (*Select, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return sub, nil
}

func (p *parser) parseOperand() (Operand, error) {
	switch {
	case p.tok.kind == tokSymbol && p.tok.text == "?":
		opd := Operand{Kind: OpdParam, Ord: p.params}
		p.params++
		return opd, p.advance()
	case p.tok.kind == tokNumber || p.tok.kind == tokSymbol && p.tok.text == "-":
		v, err := p.number()
		if err != nil {
			return Operand{}, err
		}
		return NumOperand(fuzzy.Crisp(v)), nil
	case p.tok.kind == tokString:
		s := p.tok.text
		return StrOperand(s), p.advance()
	case p.tok.kind == tokIdent:
		// Fuzzy literal functions.
		upper := strings.ToUpper(p.tok.text)
		switch upper {
		case "TRAP", "TRI", "ABOUT", "INTERVAL":
			t, err := p.parseFuzzyLiteral(upper)
			if err != nil {
				return Operand{}, err
			}
			return NumOperand(t), nil
		}
		r, err := p.ref()
		if err != nil {
			return Operand{}, err
		}
		return RefOperand(r), nil
	default:
		return Operand{}, fmt.Errorf("fsql: expected operand, got %s", p.tok)
	}
}

// parseFuzzyLiteral parses TRAP(a,b,c,d), TRI(a,b,c), ABOUT(x[,spread])
// and INTERVAL(lo,hi). The keyword has been seen but not consumed.
func (p *parser) parseFuzzyLiteral(fn string) (fuzzy.Trapezoid, error) {
	if err := p.advance(); err != nil {
		return fuzzy.Trapezoid{}, err
	}
	if err := p.expectSym("("); err != nil {
		return fuzzy.Trapezoid{}, err
	}
	var args []float64
	for {
		v, err := p.number()
		if err != nil {
			return fuzzy.Trapezoid{}, err
		}
		args = append(args, v)
		ok, err := p.acceptSym(",")
		if err != nil {
			return fuzzy.Trapezoid{}, err
		}
		if !ok {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return fuzzy.Trapezoid{}, err
	}
	switch fn {
	case "TRAP":
		if len(args) != 4 {
			return fuzzy.Trapezoid{}, fmt.Errorf("fsql: TRAP takes 4 arguments, got %d", len(args))
		}
		return fuzzy.NewTrap(args[0], args[1], args[2], args[3])
	case "TRI":
		if len(args) != 3 {
			return fuzzy.Trapezoid{}, fmt.Errorf("fsql: TRI takes 3 arguments, got %d", len(args))
		}
		return fuzzy.NewTrap(args[0], args[1], args[1], args[2])
	case "ABOUT":
		var t fuzzy.Trapezoid
		switch len(args) {
		case 1:
			t = fuzzy.About(args[0], defaultAboutSpread(args[0]))
		case 2:
			if args[1] < 0 {
				return fuzzy.Trapezoid{}, fmt.Errorf("fsql: ABOUT spread must be non-negative")
			}
			t = fuzzy.About(args[0], args[1])
		default:
			return fuzzy.Trapezoid{}, fmt.Errorf("fsql: ABOUT takes 1 or 2 arguments, got %d", len(args))
		}
		// x ± spread can overflow to an infinite corner.
		return fuzzy.NewTrap(t.A, t.B, t.C, t.D)
	case "INTERVAL":
		if len(args) != 2 {
			return fuzzy.Trapezoid{}, fmt.Errorf("fsql: INTERVAL takes 2 arguments, got %d", len(args))
		}
		return fuzzy.NewTrap(args[0], args[0], args[1], args[1])
	default:
		return fuzzy.Trapezoid{}, fmt.Errorf("fsql: unknown fuzzy literal %q", fn)
	}
}

// defaultAboutSpread is the spread used by one-argument ABOUT(x): 10% of
// the magnitude, with a floor of 1.
func defaultAboutSpread(x float64) float64 {
	s := x
	if s < 0 {
		s = -s
	}
	s *= 0.1
	if s < 1 {
		s = 1
	}
	return s
}

// parseCreate dispatches CREATE TABLE vs CREATE INDEX.
func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.kw("TABLE"):
		return p.parseCreateTable()
	case p.kw("INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, fmt.Errorf("fsql: expected TABLE or INDEX after CREATE, got %s", p.tok)
	}
}

// parseDrop dispatches DROP TABLE vs DROP INDEX.
func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.kw("TABLE"):
		return p.parseDropTable()
	case p.kw("INDEX"):
		return p.parseDropIndex()
	default:
		return nil, fmt.Errorf("fsql: expected TABLE or INDEX after DROP, got %s", p.tok)
	}
}

// name consumes an object name: a bare identifier or a quoted string.
func (p *parser) name() (string, error) {
	if p.tok.kind == tokString {
		text := p.tok.text
		if text == "" {
			return "", fmt.Errorf("fsql: empty quoted name")
		}
		return text, p.advance()
	}
	return p.ident()
}

// parseCreateIndex parses INDEX name ON table (attr); CREATE has been
// consumed.
func (p *parser) parseCreateIndex() (Statement, error) {
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Attr: attr}, nil
}

// parseDropIndex parses INDEX name; DROP has been consumed.
func (p *parser) parseDropIndex() (Statement, error) {
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	return &DropIndex{Name: name}, nil
}

// parseCreateTable parses TABLE name (col type, ...); CREATE has been
// consumed.
func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		kindName, err := p.ident()
		if err != nil {
			return nil, err
		}
		var kind frel.Kind
		switch strings.ToUpper(kindName) {
		case "NUMBER", "FUZZY", "NUMERIC":
			kind = frel.KindNumber
		case "STRING", "TEXT", "CHAR", "VARCHAR":
			kind = frel.KindString
		default:
			return nil, fmt.Errorf("fsql: unknown column type %q", kindName)
		}
		ct.Attrs = append(ct.Attrs, frel.Attribute{Name: strings.ToUpper(col), Kind: kind})
		ok, err := p.acceptSym(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

// parseDropTable parses TABLE name; DROP has been consumed.
func (p *parser) parseDropTable() (Statement, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name, Degree: 1}
	for {
		opd, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if opd.Kind == OpdRef {
			return nil, fmt.Errorf("fsql: INSERT values must be literals, got reference %q", opd.Ref)
		}
		ins.Values = append(ins.Values, opd)
		ok, err := p.acceptSym(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if ok, err := p.acceptKw("DEGREE"); err != nil {
		return nil, err
	} else if ok {
		d, err := p.number()
		if err != nil {
			return nil, err
		}
		if d <= 0 || d > 1 {
			return nil, fmt.Errorf("fsql: DEGREE %g out of (0, 1]", d)
		}
		ins.Degree = d
	}
	return ins, nil
}

func (p *parser) parseDefineTerm() (Statement, error) {
	if err := p.expectKw("DEFINE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TERM"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokString {
		return nil, fmt.Errorf("fsql: DEFINE TERM expects a quoted term name, got %s", p.tok)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("fsql: DEFINE TERM expects a fuzzy literal, got %s", p.tok)
	}
	fn := strings.ToUpper(p.tok.text)
	switch fn {
	case "TRAP", "TRI", "ABOUT", "INTERVAL":
	default:
		return nil, fmt.Errorf("fsql: DEFINE TERM expects TRAP/TRI/ABOUT/INTERVAL, got %s", p.tok)
	}
	t, err := p.parseFuzzyLiteral(fn)
	if err != nil {
		return nil, err
	}
	return &DefineTerm{Name: name, Value: t}, nil
}

// ParseLiteral parses a single literal value — a number, a quoted or bare
// string, or a fuzzy literal TRAP/TRI/ABOUT/INTERVAL — as used in CSV
// cells and other data-loading paths. A bare unquoted string that is not
// numeric or a fuzzy literal is returned as a string operand.
func ParseLiteral(src string) (Operand, error) {
	p, err := newParser(src)
	if err != nil {
		return Operand{}, err
	}
	// Bare words (possibly several, e.g. "medium young") are strings.
	if p.tok.kind == tokIdent {
		switch strings.ToUpper(p.tok.text) {
		case "TRAP", "TRI", "ABOUT", "INTERVAL":
		default:
			return StrOperand(strings.TrimSpace(src)), nil
		}
	}
	opd, err := p.parseOperand()
	if err != nil {
		return Operand{}, err
	}
	if p.tok.kind != tokEOF {
		return Operand{}, fmt.Errorf("fsql: trailing input in literal %q", src)
	}
	if opd.Kind == OpdRef {
		return StrOperand(opd.Ref), nil
	}
	return opd, nil
}
