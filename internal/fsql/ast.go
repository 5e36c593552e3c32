// Package fsql implements the Fuzzy SQL front end: a lexer, a
// recursive-descent parser, and the abstract syntax tree consumed by the
// unnesting rewriter and the evaluators.
//
// The dialect covers the language the paper uses (Sections 2-8):
//
//	SELECT [DISTINCT] item, ...          item: attr or AGG(attr)
//	FROM rel [alias], ...
//	[WHERE p1 AND p2 AND ...]            conjunctive fuzzy predicates
//	[GROUPBY attr, ...] [HAVING ...]     (also spelled GROUP BY)
//	[WITH D >= z | WITH D > z]           answer-degree threshold
//
// Predicates: X op Y; X [NOT] IN (subquery); X op ALL|ANY|SOME (subquery);
// X op (SELECT AGG(Y) ...). Operands are attribute references, numbers,
// fuzzy literals TRAP(a,b,c,d) / TRI(a,b,c) / ABOUT(x[,spread]) /
// INTERVAL(lo,hi), or quoted strings; a quoted string compared against a
// numeric attribute is resolved through the linguistic-term dictionary.
//
// DDL: CREATE TABLE, DROP TABLE, CREATE INDEX ... ON rel (attr),
// DROP INDEX, INSERT INTO ... VALUES (...) [DEGREE d],
// DEFINE TERM 'name' AS <fuzzy literal>.
package fsql

import (
	"fmt"
	"strings"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// Statement is any parsed Fuzzy SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Select is a (possibly nested) Fuzzy SQL query block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    []Predicate // conjunction
	GroupBy  []string
	Having   []Predicate // conjunction
	With     frel.Cut    // answer threshold of WITH D >= z or D > z; zero if absent
	HasWith  bool

	// ORDER BY: either the membership degree "D" or an attribute
	// reference (ordered by the Definition 3.1 interval order). Empty
	// means unordered. OrderDesc selects descending order.
	OrderBy   string
	OrderDesc bool
	// LIMIT n caps the answer after ordering and thresholding.
	Limit    int
	HasLimit bool
}

func (*Select) stmt() {}

// SelectItem is one projection item: an attribute reference, optionally
// wrapped in an aggregate function.
type SelectItem struct {
	HasAgg bool
	Agg    fuzzy.AggFunc
	Ref    string
}

// String renders the item.
func (it SelectItem) String() string {
	if it.HasAgg {
		return fmt.Sprintf("%s(%s)", it.Agg, it.Ref)
	}
	return it.Ref
}

// TableRef names a relation in a FROM clause, optionally aliased.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the relation is referenced by in the query.
func (tr TableRef) Binding() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Name
}

// String renders the table reference.
func (tr TableRef) String() string {
	if tr.Alias != "" && tr.Alias != tr.Name {
		return tr.Name + " " + tr.Alias
	}
	return tr.Name
}

// OperandKind discriminates Operand.
type OperandKind int

// Operand kinds.
const (
	OpdRef    OperandKind = iota // attribute reference
	OpdNumber                    // numeric or fuzzy literal
	OpdString                    // quoted string (crisp string or linguistic term)
	OpdParam                     // '?' placeholder of a prepared statement
)

// Operand is one side of a predicate or one inserted value.
type Operand struct {
	Kind OperandKind
	Ref  string          // OpdRef
	Num  fuzzy.Trapezoid // OpdNumber
	Str  string          // OpdString
	Ord  int             // OpdParam: zero-based ordinal in parse order
}

// RefOperand builds an attribute-reference operand.
func RefOperand(ref string) Operand { return Operand{Kind: OpdRef, Ref: ref} }

// NumOperand builds a numeric/fuzzy literal operand.
func NumOperand(t fuzzy.Trapezoid) Operand { return Operand{Kind: OpdNumber, Num: t} }

// StrOperand builds a string literal operand.
func StrOperand(s string) Operand { return Operand{Kind: OpdString, Str: s} }

// String renders the operand.
func (o Operand) String() string {
	switch o.Kind {
	case OpdRef:
		return o.Ref
	case OpdNumber:
		return o.Num.String()
	case OpdParam:
		return "?"
	default:
		return quoteStr(o.Str)
	}
}

// quoteStr renders a string literal, doubling embedded quotes so the
// rendering re-parses to the same value.
func quoteStr(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// PredKind discriminates Predicate.
type PredKind int

// Predicate kinds.
const (
	PredCompare   PredKind = iota // X op Y
	PredIn                        // X IN (subquery)
	PredNotIn                     // X NOT IN (subquery)
	PredQuant                     // X op ALL|ANY|SOME (subquery)
	PredScalarSub                 // X op (SELECT AGG(..) ...)
	PredExists                    // EXISTS (subquery); no left operand
	PredNotExists                 // NOT EXISTS (subquery); no left operand
	PredNear                      // X NEAR Y WITHIN tol (similarity / band predicate)
)

// Quantifier is the quantifier of a PredQuant predicate.
type Quantifier int

// Quantifiers. SOME is a synonym of ANY.
const (
	QuantAll Quantifier = iota
	QuantAny
	QuantSome
)

// String renders the quantifier.
func (q Quantifier) String() string {
	switch q {
	case QuantAll:
		return "ALL"
	case QuantAny:
		return "ANY"
	case QuantSome:
		return "SOME"
	default:
		return fmt.Sprintf("Quantifier(%d)", int(q))
	}
}

// Predicate is one conjunct of a WHERE or HAVING clause.
type Predicate struct {
	Kind  PredKind
	Left  Operand
	Op    fuzzy.Op        // PredCompare, PredQuant, PredScalarSub
	Right Operand         // PredCompare, PredNear
	Quant Quantifier      // PredQuant
	Sub   *Select         // PredIn, PredNotIn, PredQuant, PredScalarSub
	Tol   fuzzy.Trapezoid // PredNear: the tolerance distribution of differences
}

// String renders the predicate.
func (p Predicate) String() string {
	switch p.Kind {
	case PredCompare:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	case PredIn:
		return fmt.Sprintf("%s IN (%s)", p.Left, p.Sub)
	case PredNotIn:
		return fmt.Sprintf("%s NOT IN (%s)", p.Left, p.Sub)
	case PredQuant:
		return fmt.Sprintf("%s %s %s (%s)", p.Left, p.Op, p.Quant, p.Sub)
	case PredScalarSub:
		return fmt.Sprintf("%s %s (%s)", p.Left, p.Op, p.Sub)
	case PredExists:
		return fmt.Sprintf("EXISTS (%s)", p.Sub)
	case PredNotExists:
		return fmt.Sprintf("NOT EXISTS (%s)", p.Sub)
	case PredNear:
		return fmt.Sprintf("%s NEAR %s WITHIN TRAP(%g,%g,%g,%g)", p.Left, p.Right, p.Tol.A, p.Tol.B, p.Tol.C, p.Tol.D)
	default:
		return fmt.Sprintf("Predicate(%d)", int(p.Kind))
	}
}

// String renders the query block.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tr.String())
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUPBY " + strings.Join(s.GroupBy, ", "))
	}
	if len(s.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, p := range s.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if s.HasWith {
		b.WriteString(" WITH D " + s.With.String())
	}
	if s.OrderBy != "" {
		b.WriteString(" ORDER BY " + s.OrderBy)
		if s.OrderDesc {
			b.WriteString(" DESC")
		}
	}
	if s.HasLimit {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name  string
	Attrs []frel.Attribute
}

func (*CreateTable) stmt() {}

// String renders the statement.
func (c *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", c.Name)
	for i, a := range c.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Kind)
	}
	b.WriteString(")")
	return b.String()
}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Name string
}

func (*DropTable) stmt() {}

// String renders the statement.
func (d *DropTable) String() string { return "DROP TABLE " + d.Name }

// CreateIndex is a CREATE INDEX statement: it builds a persistent
// secondary index on the Definition 3.1 order of one numeric attribute, so
// merge joins and range scans over the attribute read the sort order from
// disk instead of sorting.
type CreateIndex struct {
	Name  string // index name (bare identifier or quoted)
	Table string
	Attr  string
}

func (*CreateIndex) stmt() {}

// String renders the statement.
func (c *CreateIndex) String() string {
	return fmt.Sprintf("CREATE INDEX %s ON %s (%s)", renderName(c.Name), c.Table, c.Attr)
}

// DropIndex is a DROP INDEX statement.
type DropIndex struct {
	Name string
}

func (*DropIndex) stmt() {}

// String renders the statement.
func (d *DropIndex) String() string { return "DROP INDEX " + renderName(d.Name) }

// renderName renders an object name: bare when it lexes as a single
// identifier, quoted otherwise, so the rendering re-parses to the same
// name.
func renderName(s string) string {
	if identLike(s) {
		return s
	}
	return quoteStr(s)
}

// identLike reports whether s is shaped like a bare identifier.
func identLike(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// Checkpoint is a CHECKPOINT statement: flush all relations to their heap
// files and truncate the write-ahead log.
type Checkpoint struct{}

func (*Checkpoint) stmt() {}

// String renders the statement.
func (*Checkpoint) String() string { return "CHECKPOINT" }

// Begin is a BEGIN statement: open an explicit multi-statement
// transaction with snapshot reads and all-or-nothing commit.
type Begin struct{}

func (*Begin) stmt() {}

// String renders the statement.
func (*Begin) String() string { return "BEGIN" }

// Commit is a COMMIT statement: make the open transaction's writes
// durable and visible to new snapshots, atomically.
type Commit struct{}

func (*Commit) stmt() {}

// String renders the statement.
func (*Commit) String() string { return "COMMIT" }

// Rollback is a ROLLBACK statement: undo the open transaction, leaving
// every relation (tuples and degrees) as it was before BEGIN.
type Rollback struct{}

func (*Rollback) stmt() {}

// String renders the statement.
func (*Rollback) String() string { return "ROLLBACK" }

// Insert is an INSERT statement. Values are literal operands (references
// are not allowed); string literals inserted into numeric attributes are
// resolved via the linguistic-term dictionary at execution time. Degree is
// the tuple's membership degree (default 1).
type Insert struct {
	Table  string
	Values []Operand
	Degree float64
}

func (*Insert) stmt() {}

// String renders the statement.
func (ins *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES (", ins.Table)
	for i, v := range ins.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(")")
	if ins.Degree != 1 {
		fmt.Fprintf(&b, " DEGREE %g", ins.Degree)
	}
	return b.String()
}

// Delete is a DELETE statement: it removes the tuples of a relation whose
// condition is satisfied to at least the threshold degree (default: any
// positive degree). The tuple's own membership degree is not part of the
// condition.
type Delete struct {
	Table     string
	Where     []Predicate // conjunction; empty deletes everything
	Threshold frel.Cut    // WITH D >= z or D > z on the deletion condition
}

func (*Delete) stmt() {}

// String renders the statement.
func (d *Delete) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM " + d.Table)
	if len(d.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range d.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if d.Threshold != (frel.Cut{}) {
		b.WriteString(" WITH D " + d.Threshold.String())
	}
	return b.String()
}

// DefineTerm binds a linguistic term to a possibility distribution.
type DefineTerm struct {
	Name  string
	Value fuzzy.Trapezoid
}

func (*DefineTerm) stmt() {}

// String renders the statement.
func (d *DefineTerm) String() string {
	// Always the explicit TRAP form: Trapezoid.String collapses crisp
	// and triangular shapes to spellings DEFINE TERM does not accept.
	return fmt.Sprintf("DEFINE TERM %s AS TRAP(%g, %g, %g, %g)",
		quoteStr(d.Name), d.Value.A, d.Value.B, d.Value.C, d.Value.D)
}

// Explain is an EXPLAIN [ANALYZE] statement: EXPLAIN reports the strategy
// the unnesting rewriter picks for the query; EXPLAIN ANALYZE executes it
// and reports the per-operator runtime statistics.
type Explain struct {
	Analyze bool
	Query   *Select
}

func (*Explain) stmt() {}

// String renders the statement.
func (ex *Explain) String() string {
	if ex.Analyze {
		return "EXPLAIN ANALYZE " + ex.Query.String()
	}
	return "EXPLAIN " + ex.Query.String()
}
