// Query 5 of the paper (Section 6), a type JA query with an aggregate
// subquery: cities of region A whose average household income exceeds the
// MAXIMUM average household income of region-B cities with similar
// population. The rewrite is the pipelined group-aggregate join of Query
// JA′ (Theorem 6.1); a COUNT variant exercises the left outer join arm of
// Query COUNT′.
package main

import (
	"fmt"
	"log"

	"repro/pkg/fuzzydb"
)

const script = `
	CREATE TABLE CITIES_REGION_A (NAME STRING, POPULATION NUMBER, AVE_HOME_INCOME NUMBER);
	CREATE TABLE CITIES_REGION_B (NAME STRING, POPULATION NUMBER, AVE_HOME_INCOME NUMBER);

	-- Populations in thousands, ill-known from survey data; incomes in K$.
	DEFINE TERM 'small town'  AS TRAP(0, 5, 30, 50);
	DEFINE TERM 'mid city'    AS TRAP(40, 80, 200, 280);
	DEFINE TERM 'big city'    AS TRAP(250, 400, 2000, 2500);

	INSERT INTO CITIES_REGION_A VALUES ('Aston',   'small town', 'about 40K');
	INSERT INTO CITIES_REGION_A VALUES ('Appleby', 'mid city',   'high');
	INSERT INTO CITIES_REGION_A VALUES ('Arbor',   'big city',   'medium high');
	INSERT INTO CITIES_REGION_A VALUES ('Alton',   TRI(60, 90, 120), 'about 60K');

	INSERT INTO CITIES_REGION_B VALUES ('Birch',   'small town', 'about 25K');
	INSERT INTO CITIES_REGION_B VALUES ('Bedrock', 'mid city',   'about 40K');
	INSERT INTO CITIES_REGION_B VALUES ('Bern',    'mid city',   'medium high');
	INSERT INTO CITIES_REGION_B VALUES ('Bigton',  'big city',   'about 60K');
`

const query5 = `
	SELECT R.NAME
	FROM CITIES_REGION_A R
	WHERE R.AVE_HOME_INCOME >
	      (SELECT MAX(S.AVE_HOME_INCOME)
	       FROM CITIES_REGION_B S
	       WHERE S.POPULATION = R.POPULATION)`

const countVariant = `
	SELECT R.NAME
	FROM CITIES_REGION_A R
	WHERE R.POPULATION >
	      (SELECT COUNT(S.NAME)
	       FROM CITIES_REGION_B S
	       WHERE S.POPULATION = R.POPULATION)`

func main() {
	db, err := fuzzydb.Open("")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(script); err != nil {
		log.Fatal(err)
	}

	run := func(title, src string) {
		strategy, err := db.Explain(src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  strategy: %s\n", title, strategy)
		res, err := db.Query(src)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < res.Len(); i++ {
			fmt.Printf("  %-8s D = %.4g\n", res.Row(i)[0], res.Degree(i))
		}
		naive, err := db.QueryNaive(src)
		if err != nil {
			log.Fatal(err)
		}
		if !naive.Equal(res, 1e-9) {
			log.Fatal("MISMATCH against the naive nested evaluation")
		}
		fmt.Println("  ✓ equivalent to the naive nested evaluation (Theorem 6.1)")
		fmt.Println()
	}

	run("Query 5 — beats the best similar-population region-B income (MAX):", query5)
	run("COUNT variant — population above the number of similar region-B cities:", countVariant)
}
