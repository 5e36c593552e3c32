package csvio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/frel"
	"repro/internal/fuzzy"
)

func sampleSchema() *frel.Schema {
	return frel.NewSchema("F",
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
		frel.Attribute{Name: "AGE", Kind: frel.KindNumber},
	)
}

func TestExportImportRoundTrip(t *testing.T) {
	rel := frel.NewRelation(sampleSchema())
	rel.Append(
		frel.NewTuple(1, frel.Str("Ann"), frel.Crisp(24)),
		frel.NewTuple(0.5, frel.Str("Bob, Jr."), frel.Num(fuzzy.Trap(30, 35, 35, 40))),
		frel.NewTuple(0.25, frel.Str(`quote " inside`), frel.Num(fuzzy.Trap(20, 25, 30, 35))),
	)
	var buf bytes.Buffer
	if err := Export(&buf, rel); err != nil {
		t.Fatal(err)
	}
	back, err := Import(&buf, sampleSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(rel, 1e-12) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", back, rel)
	}
}

func TestImportTermsAndLiterals(t *testing.T) {
	csvText := `NAME,AGE,D
Ann,medium young,1
Bea,"TRI(30,35,40)",0.5
Cal,44,
`
	terms := catalog.PaperTerms()
	rel, err := Import(strings.NewReader(csvText), sampleSchema(), func(n string) (fuzzy.Trapezoid, bool) {
		v, ok := terms[strings.ToLower(n)]
		return v, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("len = %d", rel.Len())
	}
	if rel.Tuples[0].Values[1].Num != fuzzy.Trap(20, 25, 30, 35) {
		t.Errorf("term cell = %v", rel.Tuples[0].Values[1])
	}
	if rel.Tuples[1].Values[1].Num != fuzzy.Tri(30, 35, 40) || rel.Tuples[1].D != 0.5 {
		t.Errorf("literal cell = %v", rel.Tuples[1])
	}
	// Missing degree defaults to 1.
	if rel.Tuples[2].D != 1 || rel.Tuples[2].Values[1].Num != fuzzy.Crisp(44) {
		t.Errorf("default degree = %v", rel.Tuples[2])
	}
}

func TestImportWithoutDColumn(t *testing.T) {
	csvText := "NAME,AGE\nAnn,24\n"
	rel, err := Import(strings.NewReader(csvText), sampleSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].D != 1 {
		t.Errorf("rel = %v", rel.Tuples)
	}
}

func TestImportErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"bad header count", "NAME\nAnn\n"},
		{"bad header name", "NAME,YEARS,D\nAnn,24,1\n"},
		{"bad last header", "NAME,AGE,DEGREE\nAnn,24,1\n"},
		{"unknown term", "NAME,AGE\nAnn,superb\n"},
		{"bad degree", "NAME,AGE,D\nAnn,24,2\n"},
		{"zero degree", "NAME,AGE,D\nAnn,24,0\n"},
		{"bad fuzzy literal", "NAME,AGE\nAnn,\"TRAP(4,3,2,1)\"\n"},
		{"short row", "NAME,AGE,D\nAnn\n"},
	}
	for _, tc := range cases {
		if _, err := Import(strings.NewReader(tc.text), sampleSchema(), nil); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestExportQuotesCommas(t *testing.T) {
	rel := frel.NewRelation(sampleSchema())
	rel.Append(frel.NewTuple(1, frel.Str("x"), frel.Num(fuzzy.Trap(1, 2, 3, 4))))
	var buf bytes.Buffer
	if err := Export(&buf, rel); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"TRAP(1,2,3,4)"`) {
		t.Errorf("fuzzy cell not quoted: %q", buf.String())
	}
}

// TestImportRefusesNaN: no NaN degree or corner gets into an imported
// relation. A degree must lie in (0, 1], which NaN, an infinity and both
// zeros do not; a number cell is a literal, in which NaN and Inf are words
// (unknown terms) and an overflowing number is a range error.
func TestImportRefusesNaN(t *testing.T) {
	for _, d := range []string{"NaN", "nan", "+Inf", "Inf", "0", "-0", "1.5"} {
		if rel, err := Import(strings.NewReader("NAME,AGE,D\nAnn,1,"+d+"\n"), sampleSchema(), nil); err == nil {
			t.Errorf("degree %q: imported %v", d, rel.Tuples)
		}
	}
	terms := catalog.PaperTerms()
	resolve := func(n string) (fuzzy.Trapezoid, bool) {
		v, ok := terms[strings.ToLower(n)]
		return v, ok
	}
	for _, cell := range []string{"NaN", "nan", "-NaN", "Inf", "+Inf", "1e999", `"TRAP(1,2,3,1e999)"`, `"ABOUT(1e308,1e308)"`} {
		if rel, err := Import(strings.NewReader("NAME,AGE\nAnn,"+cell+"\n"), sampleSchema(), resolve); err == nil {
			t.Errorf("cell %s: imported %v", cell, rel.Tuples)
		}
	}
	if _, err := Import(strings.NewReader("NAME,AGE,D\nAnn,1,1\nBea,2,5e-324\n"), sampleSchema(), nil); err != nil {
		t.Errorf("degrees 1 and the least positive float refused: %v", err)
	}
}
