// Query 4 of the paper (Section 5), a type JX query with the set
// exclusion operator: find employees of the Sales department who do NOT
// have the income of any Research employee of their age. The rewrite is
// the group-minimum anti-join of Query JX′ (Theorem 5.1).
package main

import (
	"fmt"
	"log"

	"repro/pkg/fuzzydb"
)

const script = `
	CREATE TABLE EMP_SALES    (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	CREATE TABLE EMP_RESEARCH (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);

	INSERT INTO EMP_SALES VALUES (1, 'Sam',  'about 29',     'about 40K');
	INSERT INTO EMP_SALES VALUES (2, 'Sue',  'medium young', 'medium high');
	INSERT INTO EMP_SALES VALUES (3, 'Stan', 'middle age',   'low');
	INSERT INTO EMP_SALES VALUES (4, 'Sara', 'about 50',     'high');

	INSERT INTO EMP_RESEARCH VALUES (11, 'Ron',  'about 29',   'about 40K');
	INSERT INTO EMP_RESEARCH VALUES (12, 'Rita', 'middle age', 'low');
	INSERT INTO EMP_RESEARCH VALUES (13, 'Rob',  'about 50',   'about 60K');
`

const query4 = `
	SELECT R.NAME
	FROM EMP_SALES R
	WHERE R.INCOME NOT IN
	      (SELECT S.INCOME
	       FROM EMP_RESEARCH S
	       WHERE S.AGE = R.AGE)`

func main() {
	db, err := fuzzydb.Open("")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(script); err != nil {
		log.Fatal(err)
	}

	strategy, err := db.Explain(query4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Query 4 strategy: %s\n\n", strategy)

	res, err := db.Query(query4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Sales employees not earning any Research income at their age:")
	for i := 0; i < res.Len(); i++ {
		fmt.Printf("  %-5s  D = %.4g\n", res.Row(i)[0], res.Degree(i))
	}

	// Sanity: the unnested evaluation matches the nested semantics.
	naive, err := db.QueryNaive(query4)
	if err != nil {
		log.Fatal(err)
	}
	if !naive.Equal(res, 1e-9) {
		log.Fatal("MISMATCH against the naive nested evaluation")
	}
	fmt.Println("\n✓ equivalent to the naive nested evaluation (Theorem 5.1)")
}
