package frel

import (
	"strings"
	"testing"
)

func dating() *Schema {
	return NewSchema("F",
		Attribute{"ID", KindNumber},
		Attribute{"NAME", KindString},
		Attribute{"AGE", KindNumber},
		Attribute{"INCOME", KindNumber},
	)
}

func TestResolveUnqualified(t *testing.T) {
	s := dating()
	i, err := s.Resolve("AGE")
	if err != nil || i != 2 {
		t.Errorf("Resolve(AGE) = %d, %v; want 2", i, err)
	}
}

func TestResolveQualified(t *testing.T) {
	s := dating()
	i, err := s.Resolve("F.AGE")
	if err != nil || i != 2 {
		t.Errorf("Resolve(F.AGE) = %d, %v; want 2", i, err)
	}
	if _, err := s.Resolve("M.AGE"); err == nil {
		t.Errorf("Resolve(M.AGE): want error for wrong qualifier")
	}
}

func TestResolveUnknown(t *testing.T) {
	if _, err := dating().Resolve("HEIGHT"); err == nil {
		t.Errorf("Resolve(HEIGHT): want error")
	}
}

func TestResolveOnJoinedSchema(t *testing.T) {
	f := dating()
	m := dating().WithName("M")
	j := f.Join(m)
	i, err := j.Resolve("F.AGE")
	if err != nil || i != 2 {
		t.Errorf("Resolve(F.AGE) = %d, %v; want 2", i, err)
	}
	i, err = j.Resolve("M.AGE")
	if err != nil || i != 6 {
		t.Errorf("Resolve(M.AGE) = %d, %v; want 6", i, err)
	}
	// Unqualified AGE is ambiguous in the join schema.
	if _, err := j.Resolve("AGE"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Resolve(AGE) on join = %v; want ambiguity error", err)
	}
}

// TestResolveAndHas: unknown, ambiguous, qualified and unqualified
// references resolve to the same index or error message as they always
// have, Has agrees with Resolve, and a miss of Has allocates nothing.
func TestResolveAndHas(t *testing.T) {
	f := dating()
	j := f.Join(dating().WithName("M"))
	cases := []struct {
		s       *Schema
		ref     string
		want    int
		wantErr string
	}{
		{f, "AGE", 2, ""},
		{f, "age", 2, ""},
		{f, "F.AGE", 2, ""},
		{f, "f.Income", 3, ""},
		{f, "HEIGHT", 0, `frel: unknown attribute "HEIGHT" in relation "F"`},
		{f, "M.AGE", 0, `frel: unknown attribute "M.AGE" in relation "F"`},
		{j, "F.AGE", 2, ""},
		{j, "M.AGE", 6, ""},
		{j, "m.name", 5, ""},
		{j, "AGE", 0, `frel: ambiguous attribute reference "AGE" in relation ""`},
		{j, "X.AGE", 0, `frel: unknown attribute "X.AGE" in relation ""`},
		{NewSchema("T", Attribute{"X", KindNumber}, Attribute{"X", KindNumber}), "X", 0, ""},
	}
	for _, c := range cases {
		i, err := c.s.Resolve(c.ref)
		switch {
		case c.wantErr == "" && (err != nil || i != c.want):
			t.Errorf("Resolve(%q) = %d, %v; want %d", c.ref, i, err, c.want)
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("Resolve(%q) = %d, %v; want error %q", c.ref, i, err, c.wantErr)
		}
		if has := c.s.Has(c.ref); has != (c.wantErr == "") {
			t.Errorf("Has(%q) = %v, want %v", c.ref, has, c.wantErr == "")
		}
	}
	if n := testing.AllocsPerRun(10, func() { j.Has("AGE"); f.Has("HEIGHT") }); n != 0 {
		t.Errorf("a miss of Has allocated %.0f times, want 0", n)
	}
}

func TestResolveDuplicateIdenticalAttrsNotAmbiguous(t *testing.T) {
	// A projection can mention the same attribute twice; identical
	// duplicates resolve to the first occurrence rather than erroring.
	s := NewSchema("T", Attribute{"X", KindNumber}, Attribute{"X", KindNumber})
	i, err := s.Resolve("X")
	if err != nil || i != 0 {
		t.Errorf("Resolve(X) = %d, %v; want 0", i, err)
	}
}

func TestWithName(t *testing.T) {
	s := dating().WithName("R")
	if s.Name != "R" {
		t.Errorf("Name = %q", s.Name)
	}
	if _, err := s.Resolve("R.AGE"); err != nil {
		t.Errorf("Resolve(R.AGE) after rename: %v", err)
	}
	if _, err := s.Resolve("F.AGE"); err == nil {
		t.Errorf("Resolve(F.AGE) after rename: want error")
	}
}

func TestQualified(t *testing.T) {
	s := dating()
	if got := s.Qualified(2); got != "F.AGE" {
		t.Errorf("Qualified(2) = %q", got)
	}
	j := s.Join(dating().WithName("M"))
	if got := j.Qualified(0); got != "F.ID" {
		t.Errorf("join Qualified(0) = %q", got)
	}
}

func TestProject(t *testing.T) {
	s := dating()
	p, idx, err := s.Project([]string{"NAME", "F.AGE"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if len(p.Attrs) != 2 || p.Attrs[0].Name != "F.NAME" || p.Attrs[1].Name != "F.AGE" {
		t.Errorf("Project schema = %v", p)
	}
	if idx[0] != 1 || idx[1] != 2 {
		t.Errorf("Project indexes = %v", idx)
	}
	if _, _, err := s.Project([]string{"NOPE"}); err == nil {
		t.Errorf("Project(NOPE): want error")
	}
}

func TestSchemaClone(t *testing.T) {
	s := dating()
	c := s.Clone()
	c.Attrs[0].Name = "XX"
	if s.Attrs[0].Name != "ID" {
		t.Errorf("Clone is not deep")
	}
}

func TestSchemaString(t *testing.T) {
	got := NewSchema("R", Attribute{"X", KindNumber}).String()
	if got != "R(X NUMBER, D)" {
		t.Errorf("String = %q", got)
	}
}
