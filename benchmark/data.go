package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/workload"
	"repro/pkg/fuzzydb"
)

// Fixed engine settings of every workload: the paper's 2 MB buffer pool,
// both cores, WAL on with fsync per commit (group-commit window 0, the
// default), default engine (batch + kernels).
const (
	poolPages   = 256
	parallelism = 2
	tupleBytes  = 128
	withClause  = " WITH D >= 0.5"
)

// sizes are the cardinalities and the fixed amount of work of one scale.
type sizes struct {
	nested  int            // tuples in S; R has three times as many, T a seventh
	rw      int            // tuples in each of W0, W1, S (served_rw)
	replica int            // tuples in S in the naive-vs-unnested gate
	setups  int            // timed set-up repetitions; setup_s is their median
	passes  map[string]int // timed passes per caller, by workload
}

var scales = map[string]sizes{
	// full: R is 30 000 x 128 B = 3.84 MB, twice the 2 MB sort memory, so
	// sorting it writes runs and merges them; S is 1.28 MB; 5.3 MB with the
	// thin T against the 2 MB pool. The pass counts are the work that fits
	// run_seconds on the benchmark machine with a fifth to spare: the work
	// is fixed, --seconds only cuts a run short on a slower machine.
	"full": {nested: 10000, rw: 4000, replica: 300, setups: 9, passes: map[string]int{
		"nested_cold": 17, "nested_warm": 35, "served_small": 4500, "served_rw": 170}},
	"tiny": {nested: 120, rw: 100, replica: 40, setups: 1, passes: map[string]int{
		"nested_cold": 3, "nested_warm": 3, "served_small": 6, "served_rw": 3}},
}

// class is one statement class: a nested query template over an outer
// relation (%[1]s, where the template has one) and fixed inner relations. The six paper
// templates are those of internal/workload/differential.go (copied: they
// are unexported there); K3 is the 3-level chain.
type class struct {
	name, group, tmpl string
}

var classes = []class{
	{"N", "join", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B IN (SELECT S.B FROM S)`},
	{"J", "join", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B IN (SELECT S.B FROM S WHERE S.A = %[1]s.A)`},
	{"JX", "anti", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B NOT IN (SELECT S.B FROM S WHERE S.A = %[1]s.A)`},
	{"JALL", "anti", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B > ALL (SELECT S.B FROM S WHERE S.A = %[1]s.A)`},
	{"JA", "agg", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B >= (SELECT AVG(S.B) FROM S WHERE S.A = %[1]s.A)`},
	{"JA_COUNT", "agg", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = %[1]s.A)`},
	{"K3", "chain", `SELECT %[1]s.K FROM %[1]s WHERE %[1]s.B IN (SELECT S.B FROM S WHERE S.A = %[1]s.A AND S.B IN (SELECT T.B FROM T WHERE T.A = S.A))`},
}

// rwClasses are the classes served_rw reads after each batch of writes.
var rwClasses = []string{"J", "JX", "JA", "K3"}

func classByName(name string) class {
	for _, c := range classes {
		if c.name == name {
			return c
		}
	}
	panic("benchmark: unknown class " + name)
}

// sql renders the class over the given outer relation.
func (c class) sql(outer string) string {
	return fmt.Sprintf(c.tmpl, outer) + withClause
}

// The 8-row dating dataset of cmd/fuzzyload (the paper's Example 4.1),
// plus the LOADLOG table its write mode inserts into.
const smallSetup = `
	CREATE TABLE F (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	CREATE TABLE M (ID NUMBER, NAME STRING, AGE NUMBER, INCOME NUMBER);
	INSERT INTO F VALUES (101, 'Ann',   'about 35',     'about 60K');
	INSERT INTO F VALUES (102, 'Ann',   'medium young', 'medium high');
	INSERT INTO F VALUES (103, 'Betty', 'middle age',   'high');
	INSERT INTO F VALUES (104, 'Cathy', 'about 50',     'low');
	INSERT INTO M VALUES (201, 'Allen', 24,           'about 25K');
	INSERT INTO M VALUES (202, 'Allen', 'about 50',   'about 40K');
	INSERT INTO M VALUES (203, 'Bill',  'middle age', 'high');
	INSERT INTO M VALUES (204, 'Carl',  'about 29',   'medium low');
	CREATE TABLE LOADLOG (ID NUMBER, NOTE STRING);
`

// smallClasses are the statement classes of served_small, one per read
// group, over the dating tables. They carry no constant filter and there is
// no K3 among them: a filtered input or an intermediate result is not a
// base relation, so its sort order is never cached and every such statement
// spills and sorts it through temporary files, which turns a sub-millisecond
// statement into a measurement of the file system. On the benchmark
// machine's ext4 a filter tripled the statement time and made runs differ
// by a factor of two; K3 took 0.5 or 0.9 ms for minutes at a time while the
// other classes stayed where they were.
var smallClasses = []class{
	{"N", "join", `SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)`},
	{"JX", "anti", `SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)`},
	{"JA", "agg", `SELECT F.NAME FROM F WHERE F.INCOME >= (SELECT AVG(M.INCOME) FROM M WHERE M.AGE = F.AGE)`},
}

// generate builds one relation the way the paper's experiments do (fanout
// C = 7, width 5, jitter 0.5, 128-byte tuples) and degrades about half of
// the tuple degrees as workload.NewDiffCase does.
func generate(name string, tuples, fanout int, seed int64) (*frel.Relation, error) {
	rel, err := workload.Generate(workload.Params{
		Name: name, Tuples: tuples, TupleBytes: tupleBytes,
		Fanout: fanout, Width: 5, Jitter: 0.5, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range rel.Tuples {
		if rng.Float64() < 0.5 {
			rel.Tuples[i].D = 0.05 + 0.95*rng.Float64()
		}
	}
	return rel, nil
}

// relSpec names a generated relation, the seed offset it is drawn with and
// how many tuples it has at each join centre. All relations of a database
// share the centres (a seventh of sizes.nested or sizes.rw), so a tuple of
// the outer relation joins 7 tuples of S, the paper's fanout. R has 21 per
// centre, three times S, which makes it the relation larger than the sort
// memory. T has one: joining it multiplies nothing, which keeps the
// intermediate result of the K3 chain at the size of S. With seven per
// centre that result had seven times the rows, K3 took half of every pass,
// and its spill files were most of what a run wrote. W0 and W1 share an
// offset, so both served_rw connections see the same data and must return
// the same answers.
type relSpec struct {
	name string
	off  int64
	per  int
}

var (
	nestedRels = []relSpec{{"R", 0, 21}, {"S", 1, 7}, {"T", 2, 1}}
	rwRels     = []relSpec{{"W0", 0, 7}, {"W1", 0, 7}, {"S", 1, 7}, {"T", 2, 1}}
)

// loadGenerated bulk-loads generated relations into a fresh database
// directory, one WAL transaction per relation, and checkpoints. unit is
// the size of a relation with 7 tuples per centre.
func loadGenerated(dir string, rels []relSpec, unit int, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sess, err := core.OpenSession(dir, poolPages)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, r := range rels {
		rel, err := generate(r.name, unit/7*r.per, r.per, seed*16+r.off)
		if err != nil {
			return err
		}
		h, err := sess.Catalog().CreateRelation(r.name, rel.Schema)
		if err != nil {
			return err
		}
		if err := h.AppendAll(rel); err != nil {
			return err
		}
	}
	if err := sess.Catalog().Save(); err != nil {
		return err
	}
	return sess.Catalog().Manager().Checkpoint()
}

// openDB opens a database directory with the benchmark's fixed settings.
func openDB(dir string) (*fuzzydb.DB, error) {
	return fuzzydb.Open(dir, fuzzydb.WithBufferPoolPages(poolPages), fuzzydb.WithParallelism(parallelism))
}

// setupData builds the database of a workload in dir.
func setupData(workloadName, dir string, sz sizes, seed int64) error {
	switch workloadName {
	case "nested_cold", "nested_warm":
		if err := loadGenerated(dir, nestedRels, sz.nested, seed); err != nil {
			return err
		}
		// SIDE takes the one INSERT of every pass; it shares no sort order
		// with R, S, T, so writing it invalidates nothing the reads use.
		return execScript(dir, `CREATE TABLE SIDE (ID NUMBER, NOTE STRING);`)
	case "served_small":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return execScript(dir, smallSetup)
	case "served_rw":
		if err := loadGenerated(dir, rwRels, sz.rw, seed); err != nil {
			return err
		}
		return execScript(dir, `
			CREATE INDEX w0_a ON W0 (A); CREATE INDEX w0_b ON W0 (B);
			CREATE INDEX w1_a ON W1 (A); CREATE INDEX w1_b ON W1 (B);`)
	}
	return fmt.Errorf("unknown workload %q", workloadName)
}

func execScript(dir, script string) error {
	db, err := openDB(dir)
	if err != nil {
		return err
	}
	if err := db.Exec(script); err != nil {
		db.Close()
		return err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
