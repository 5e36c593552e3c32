// Package csvio imports and exports fuzzy relations as CSV files, so data
// can move between the fuzzy database and ordinary tools.
//
// Layout: one header row with the attribute names followed by the
// membership-degree column D; then one row per tuple. Numeric cells
// render crisp values as plain numbers and possibility distributions as
// TRAP(a,b,c,d); on import a numeric cell may also be TRI/ABOUT/INTERVAL
// or a linguistic term resolved through a dictionary.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// TermResolver resolves linguistic terms during import; it may be nil.
type TermResolver func(name string) (fuzzy.Trapezoid, bool)

// Export writes the relation to w as CSV.
func Export(w io.Writer, rel *frel.Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(rel.Schema.Attrs)+1)
	for _, a := range rel.Schema.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "D")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range rel.Tuples {
		for i, v := range t.Values {
			if v.Kind == frel.KindString {
				row[i] = v.Str
			} else {
				row[i] = formatNum(v.Num)
			}
		}
		row[len(row)-1] = strconv.FormatFloat(t.D, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatNum(t fuzzy.Trapezoid) string {
	if t.IsCrisp() {
		return strconv.FormatFloat(t.A, 'g', -1, 64)
	}
	return fmt.Sprintf("TRAP(%s,%s,%s,%s)",
		strconv.FormatFloat(t.A, 'g', -1, 64),
		strconv.FormatFloat(t.B, 'g', -1, 64),
		strconv.FormatFloat(t.C, 'g', -1, 64),
		strconv.FormatFloat(t.D, 'g', -1, 64))
}

// Import reads CSV from r into a relation with the given schema. The
// header row is required; its columns must match the schema's attribute
// names (case-insensitively), optionally followed by a final D column.
// Numeric cells accept numbers, fuzzy literals, and — with a resolver —
// linguistic terms. A missing D column (or empty cell) defaults to 1; any
// other degree outside (0, 1], NaN included, is an error.
func Import(r io.Reader, schema *frel.Schema, terms TermResolver) (*frel.Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: read header: %w", err)
	}
	nAttrs := len(schema.Attrs)
	hasD := false
	switch len(header) {
	case nAttrs:
	case nAttrs + 1:
		if !equalFold(header[nAttrs], "D") {
			return nil, fmt.Errorf("csvio: last header column is %q, want D", header[nAttrs])
		}
		hasD = true
	default:
		return nil, fmt.Errorf("csvio: header has %d columns, schema has %d attributes", len(header), nAttrs)
	}
	for i, a := range schema.Attrs {
		if !equalFold(header[i], a.Name) {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema attribute is %q", i, header[i], a.Name)
		}
	}

	rel := frel.NewRelation(schema)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line+1, err)
		}
		line++
		if len(rec) != len(header) {
			return nil, fmt.Errorf("csvio: line %d has %d cells, want %d", line, len(rec), len(header))
		}
		vals := make([]frel.Value, nAttrs)
		for i, a := range schema.Attrs {
			v, err := parseCell(rec[i], a.Kind, terms)
			if err != nil {
				return nil, fmt.Errorf("csvio: line %d, column %s: %w", line, a.Name, err)
			}
			vals[i] = v
		}
		d := 1.0
		if hasD && rec[nAttrs] != "" {
			d, err = strconv.ParseFloat(rec[nAttrs], 64)
			if err != nil || !(d > 0 && d <= 1) { // NaN fails both tests
				return nil, fmt.Errorf("csvio: line %d: bad degree %q", line, rec[nAttrs])
			}
		}
		rel.Append(frel.NewTuple(d, vals...))
	}
}

func parseCell(cell string, kind frel.Kind, terms TermResolver) (frel.Value, error) {
	if kind == frel.KindString {
		return frel.Str(cell), nil
	}
	opd, err := fsql.ParseLiteral(cell)
	if err != nil {
		return frel.Value{}, err
	}
	switch opd.Kind {
	case fsql.OpdNumber:
		return frel.Num(opd.Num), nil
	case fsql.OpdString:
		if terms != nil {
			if t, ok := terms(opd.Str); ok {
				return frel.Num(t), nil
			}
		}
		return frel.Value{}, fmt.Errorf("unknown linguistic term %q", opd.Str)
	default:
		return frel.Value{}, fmt.Errorf("cell %q is not a value", cell)
	}
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
