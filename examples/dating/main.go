// The paper's running example: a dating service database with male (M)
// and female (F) clients whose ages and incomes are ill-known linguistic
// values. Reproduces, with the exact degrees of the paper:
//
//   - Query 1 (Section 2.2): pairs of about the same age where the male
//     earns more than "medium high";
//   - Query 2 / Example 4.1 (Sections 2.3 and 4): the nested type N query,
//     its temporary relation T = {about 40K: 0.4, high: 1}, and the final
//     answer {Ann: 0.7, Betty: 0.7} — via both the naive nested evaluation
//     and the unnested merge-join evaluation.
//
// Uses only the public embedding API (package repro/pkg/fuzzydb).
package main

import (
	"fmt"
	"log"

	"repro/pkg/fuzzydb"
)

const schemaAndData = `
	CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	CREATE TABLE M (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);

	-- Example 4.1 of the paper (incomes in thousands of dollars).
	INSERT INTO F VALUES (101, 'Ann',   'about 35',     'about 60K');
	INSERT INTO F VALUES (102, 'Ann',   'medium young', 'medium high');
	INSERT INTO F VALUES (103, 'Betty', 'middle age',   'high');
	INSERT INTO F VALUES (104, 'Cathy', 'about 50',     'low');

	INSERT INTO M VALUES (201, 'Allen', 24,           'about 25K');
	INSERT INTO M VALUES (202, 'Allen', 'about 50',   'about 40K');
	INSERT INTO M VALUES (203, 'Bill',  'middle age', 'high');
	INSERT INTO M VALUES (204, 'Carl',  'about 29',   'medium low');
`

const query1 = `
	SELECT F.NAME, M.NAME
	FROM F, M
	WHERE F.AGE = M.AGE AND M.INCOME > 'medium high'`

const query2 = `
	SELECT F.NAME
	FROM F
	WHERE F.AGE = 'medium young' AND
	      F.INCOME IN
	      (SELECT M.INCOME
	       FROM M
	       WHERE M.AGE = 'middle age')`

func main() {
	db, err := fuzzydb.Open("") // paper terms preloaded
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(schemaAndData); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Query 1 — about the same age, he earns more than 'medium high':")
	show(db, query1)

	fmt.Println("\nQuery 2, inner block — T = incomes of middle-aged men:")
	show(db, `SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'`)

	fmt.Println("\nQuery 2 — medium young women with a middle-aged man's income:")
	strategy, err := db.Explain(query2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  (unnesting strategy: %s)\n", strategy)

	naive, err := db.QueryNaive(query2)
	if err != nil {
		log.Fatal(err)
	}
	unnested, err := db.Query(query2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  naive nested evaluation:")
	printResult(naive, "    ")
	fmt.Println("  unnested merge-join evaluation:")
	printResult(unnested, "    ")
	if !naive.Equal(unnested, 1e-9) {
		log.Fatal("MISMATCH between the naive and the unnested evaluation")
	}
	fmt.Println("  ✓ identical fuzzy relations (Theorem 4.1)")
}

func show(db *fuzzydb.DB, src string) {
	res, err := db.Query(src)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res, "  ")
}

func printResult(res *fuzzydb.Result, indent string) {
	for i := 0; i < res.Len(); i++ {
		fmt.Print(indent)
		for j, v := range res.Row(i) {
			if j > 0 {
				fmt.Print(", ")
			}
			fmt.Print(v)
		}
		fmt.Printf("  |  D = %.4g\n", res.Degree(i))
	}
}
