package core_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
)

// A complete session: schema, ill-known data, and the paper's nested
// Query 2 evaluated through the unnesting rewriter.
func Example() {
	dir, err := os.MkdirTemp("", "core-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sess, err := core.OpenSession(dir, 256)
	if err != nil {
		log.Fatal(err)
	}
	stmts, err := fsql.ParseScript(`
		CREATE TABLE F (NAME STRING, AGE NUMBER, INCOME NUMBER);
		CREATE TABLE M (NAME STRING, AGE NUMBER, INCOME NUMBER);
		INSERT INTO F VALUES ('Ann',   'medium young', 'medium high');
		INSERT INTO F VALUES ('Betty', 'middle age',   'high');
		INSERT INTO M VALUES ('Bill',  'middle age',   'high');

		SELECT F.NAME FROM F
		WHERE F.AGE = 'medium young' AND
		      F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')
		ORDER BY D DESC;
	`)
	if err != nil {
		log.Fatal(err)
	}
	var answer *frel.Relation
	for _, st := range stmts {
		if answer, err = sess.Exec(st); err != nil {
			log.Fatal(err)
		}
	}
	for _, t := range answer.Tuples {
		fmt.Printf("%s %.1f\n", t.Values[0].Str, t.D)
	}
	// Output:
	// Ann 0.7
	// Betty 0.7
}

// PlanQuery reports which of the paper's rewrites a nested query takes.
func ExampleEnv_PlanQuery() {
	env := core.NewMemEnv()
	mk := func(name string, attrs ...string) {
		var as []frel.Attribute
		for _, a := range attrs {
			as = append(as, frel.Attribute{Name: a, Kind: frel.KindNumber})
		}
		if err := env.LoadRelation(name, frel.NewRelation(frel.NewSchema(name, as...))); err != nil {
			log.Fatal(err)
		}
	}
	mk("R", "X", "Y", "U")
	mk("S", "Z", "V")
	q, err := fsql.ParseQuery(`
		SELECT R.X FROM R
		WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)`)
	if err != nil {
		log.Fatal(err)
	}
	p, err := env.PlanQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Strategy)
	// Output:
	// jx-anti-join
}
