// A 3-level chain query in the style of the paper's Query 6 (Section 8):
// projects whose estimated budget possibly matches the cost of a part that
// is itself supplied, within a similar lead time, by a highly rated
// supplier. The unnester flattens all three blocks into one join (Theorem
// 8.1) and picks the join order by dynamic programming.
package main

import (
	"fmt"
	"log"

	"repro/pkg/fuzzydb"
)

const script = `
	CREATE TABLE PROJECTS  (NAME STRING, BUDGET NUMBER, LEAD NUMBER);
	CREATE TABLE PARTS     (PNAME STRING, COST NUMBER, LEAD NUMBER);
	CREATE TABLE SUPPLIERS (SNAME STRING, PARTCOST NUMBER, RATING NUMBER);

	DEFINE TERM 'cheap'     AS TRAP(0, 0, 40, 70);
	DEFINE TERM 'pricey'    AS TRAP(60, 90, 200, 200);
	DEFINE TERM 'top rated' AS TRAP(7, 9, 10, 10);

	-- Budgets and lead times are estimates: ill-known values.
	INSERT INTO PROJECTS VALUES ('apollo',  ABOUT(80, 15), ABOUT(30, 10));
	INSERT INTO PROJECTS VALUES ('borealis', ABOUT(45, 10), ABOUT(10, 5));
	INSERT INTO PROJECTS VALUES ('comet',   ABOUT(150, 20), ABOUT(60, 10));

	INSERT INTO PARTS VALUES ('valve',  ABOUT(75, 10), ABOUT(25, 8));
	INSERT INTO PARTS VALUES ('gasket', ABOUT(42, 6),  ABOUT(12, 4));
	INSERT INTO PARTS VALUES ('rotor',  ABOUT(145, 15), ABOUT(90, 20));

	INSERT INTO SUPPLIERS VALUES ('acme',  ABOUT(74, 8),  9);
	INSERT INTO SUPPLIERS VALUES ('bolts', ABOUT(41, 5),  ABOUT(6, 1));
	INSERT INTO SUPPLIERS VALUES ('corex', ABOUT(150, 10), 'top rated');
`

const chainQuery = `
	SELECT P.NAME
	FROM PROJECTS P
	WHERE P.BUDGET IN
	      (SELECT PT.COST
	       FROM PARTS PT
	       WHERE PT.LEAD = P.LEAD AND PT.COST IN
	             (SELECT S.PARTCOST
	              FROM SUPPLIERS S
	              WHERE S.RATING >= 8))`

func main() {
	db, err := fuzzydb.Open("")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(script); err != nil {
		log.Fatal(err)
	}

	strategy, err := db.Explain(chainQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-level chain query strategy: %s\n\n", strategy)

	res, err := db.Query(chainQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("projects whose budget possibly equals a well-supplied part's cost,")
	fmt.Println("with a similar lead time:")
	for i := 0; i < res.Len(); i++ {
		fmt.Printf("  %-9s D = %.4g\n", res.Row(i)[0], res.Degree(i))
	}

	naive, err := db.QueryNaive(chainQuery)
	if err != nil {
		log.Fatal(err)
	}
	if !naive.Equal(res, 1e-9) {
		log.Fatal("MISMATCH against the naive nested evaluation")
	}
	fmt.Println("\n✓ equivalent to the naive nested evaluation (Theorem 8.1)")
}
