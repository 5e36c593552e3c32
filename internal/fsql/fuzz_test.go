package fsql

import "testing"

// fuzzSeeds covers every statement form of DESIGN.md: SELECT with nested
// subqueries of each class, fuzzy literals, NEAR, GROUPBY/HAVING, WITH,
// ORDER BY/LIMIT, EXPLAIN [ANALYZE], and the DDL/DML statements.
var fuzzSeeds = []string{
	`SELECT R.X FROM R`,
	`SELECT DISTINCT R.X, R.Y FROM R, S`,
	`SELECT R.X FROM R WHERE R.Y = 3 AND R.Z > -1.5`,
	`SELECT R.X FROM R WHERE R.Y = 1e+21`,
	`SELECT F.NAME FROM F WHERE F.AGE = 'medium young'`,
	`SELECT R.X FROM R WHERE R.NAME = 'O''Brien'`,
	`SELECT R.X FROM R WHERE R.Y = TRAP(20, 25, 30, 35) AND R.Z = TRI(1, 2, 3)`,
	`SELECT R.X FROM R WHERE R.W = ABOUT(35, 5) AND R.V = INTERVAL(10, 20)`,
	`SELECT R.X FROM R WHERE R.Y = ABOUT(50)`,
	`SELECT R.X FROM R, S WHERE R.Y NEAR S.Z WITHIN 5`,
	`SELECT R.X FROM R WHERE R.Y NEAR 10 WITHIN TRAP(-4, -1, 1, 4)`,
	`SELECT R.B IN (SELECT S.B FROM S) FROM R`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`,
	`SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`,
	`SELECT R.X FROM R WHERE R.Y = ANY (SELECT S.Z FROM S)`,
	`SELECT R.X FROM R WHERE R.Y >= SOME (SELECT S.Z FROM S)`,
	`SELECT R.X FROM R WHERE EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)`,
	`SELECT R.X FROM R WHERE R.Y > 3 AND NOT EXISTS (SELECT S.Z FROM S) AND R.X < 9`,
	`SELECT R.X, COUNT(R.Y) FROM R GROUPBY R.X`,
	`SELECT R.X FROM R GROUP BY R.X, R.Y HAVING R.X > 3`,
	`SELECT R.X FROM R WITH D >= 0.5`,
	`SELECT R.X FROM R WITH D > 0.5`,
	`SELECT R.X FROM R WHERE R.Y > 1 WITH D >= 0.2 ORDER BY D DESC LIMIT 10`,
	`SELECT R.X FROM R ORDER BY R.X ASC`,
	`SELECT R.X FROM R LIMIT 0`,
	`EXPLAIN SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`,
	`EXPLAIN ANALYZE SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`,
	`CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER)`,
	`DROP TABLE F`,
	`INSERT INTO M VALUES (201, 'Allen', 24, 'about 25K')`,
	`INSERT INTO M VALUES (1, TRAP(1,2,3,4)) DEGREE 0.6`,
	`DELETE FROM W WHERE W.AGE = 'medium young' WITH D >= 0.7`,
	`DELETE FROM W WHERE W.AGE = 'medium young' WITH D > 0.7`,
	`DELETE FROM W`,
	`DEFINE TERM 'medium young' AS TRAP(20, 25, 30, 35)`,
	`DEFINE TERM 'young' AS ABOUT(25, 10)`,
	`CREATE INDEX r_b ON R (B)`,
	`CREATE INDEX 'my index' ON S (A)`,
	`CREATE INDEX "quoted" ON S (B)`,
	`DROP INDEX r_b`,
	`DROP INDEX 'my index'`,
	// Known-invalid inputs: the fuzzer mutates these toward boundary
	// cases of the error paths.
	`SELECT R.X FROM R WHERE R.Y = 'unterminated`,
	`SELECT R.X FROM R trailing junk`,
	`INSERT INTO`,
	"SELECT R.X -- comment\nFROM R;",
}

// FuzzParser checks that the parser never panics on arbitrary input and
// that every statement it accepts round-trips: parse → String → parse
// must succeed and re-render to the identical text (String is a fixed
// point after one normalization).
func FuzzParser(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := ParseStatement(src)
		if err != nil {
			return
		}
		rendered := st.String()
		st2, err := ParseStatement(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed\ninput:    %q\nrendered: %q\nerror:    %v", src, rendered, err)
		}
		if again := st2.String(); again != rendered {
			t.Fatalf("String not a fixed point\ninput:  %q\nfirst:  %q\nsecond: %q", src, rendered, again)
		}
	})
}

// TestFuzzSeedsRoundTrip runs the fuzz property over the seed corpus in
// a plain test so it is exercised by `go test` without -fuzz, and checks
// every valid seed actually parses.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	valid := 0
	for _, src := range fuzzSeeds {
		st, err := ParseStatement(src)
		if err != nil {
			continue
		}
		valid++
		rendered := st.String()
		st2, err := ParseStatement(rendered)
		if err != nil {
			t.Errorf("round-trip parse failed for %q → %q: %v", src, rendered, err)
			continue
		}
		if again := st2.String(); again != rendered {
			t.Errorf("String not a fixed point for %q: %q vs %q", src, rendered, again)
		}
	}
	// All seeds except the deliberately-invalid block must parse.
	if want := len(fuzzSeeds) - 4; valid < want {
		t.Errorf("only %d/%d seeds parsed; want at least %d valid statements", valid, len(fuzzSeeds), want)
	}
}
