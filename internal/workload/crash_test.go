package workload

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/storage"
)

// TestCrashRecovery is the crash-safety property test: a deterministic
// mutation workload runs over an in-memory file system while a FaultFS
// kills the I/O at the n-th mutating operation — for every n and every
// fault mode (clean stop, torn write, bit flip, dropped write). After each
// simulated crash the database is reopened over the surviving bytes and
// must recover to the state of some committed prefix of the workload,
// covering at least everything that was acknowledged before the fault.
// Nothing torn, nothing half-applied, no membership degree off.
//
// CRASH_SEED varies the deterministic fault parameters (torn prefix
// length, flipped bit position); CI sweeps a handful of seeds.
func TestCrashRecovery(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("CRASH_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CRASH_SEED %q: %v", v, err)
		}
		seed = n
	}

	steps := crashSteps(t)

	// Pass 1: clean run, capturing the expected database state after
	// every step. snaps[j] is the state once j steps have committed.
	snaps := make([]dbState, 0, len(steps)+1)
	snaps = append(snaps, dbState{})
	acked, err := runCrashSteps(storage.NewMemFS(), steps, func(s *core.Session) {
		snaps = append(snaps, snapshotDB(t, s))
	})
	if err != nil || acked != len(steps) {
		t.Fatalf("clean run: %d/%d steps, err %v", acked, len(steps), err)
	}

	// Pass 2: count the workload's injection points.
	counter := storage.NewFaultFS(storage.NewMemFS(), storage.FaultStop, 0, seed)
	if _, err := runCrashSteps(counter, steps, nil); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	total := counter.Ops()
	if total < 20 {
		t.Fatalf("workload issues only %d mutating ops", total)
	}
	t.Logf("sweeping %d injection points × %d fault modes (seed %d)", total, len(storage.FaultModes), seed)

	// Pass 3: the sweep.
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for _, mode := range storage.FaultModes {
		for n := int64(1); n <= total; n += step {
			mem := storage.NewMemFS()
			ffs := storage.NewFaultFS(mem, mode, n, seed)
			acked, _ := runCrashSteps(ffs, steps, nil)
			if !ffs.Crashed() {
				continue // this mode reaches fewer ops than the stop count
			}

			// Survivor check: reopen over the base FS the crash left
			// behind and compare against the committed-prefix states.
			sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 8, FS: mem})
			if err != nil {
				t.Fatalf("%v@%d: reopen after crash: %v", mode, n, err)
			}
			got := snapshotDB(t, sess)
			verifyIndexes(t, sess, fmt.Sprintf("%v@%d", mode, n))
			verifyStats(t, sess, fmt.Sprintf("%v@%d", mode, n))
			verifyFiles(t, sess, mem, fmt.Sprintf("%v@%d", mode, n))
			matched := -1
			for j := acked; j <= len(steps); j++ {
				if got.equal(snaps[j]) {
					matched = j
					break
				}
			}
			if matched < 0 {
				t.Errorf("%v@%d: recovered state matches no committed prefix ≥ %d acked steps\nrecovered: %s",
					mode, n, acked, got)
			}
			if err := sess.Close(); err != nil {
				t.Fatalf("%v@%d: close: %v", mode, n, err)
			}
		}
	}
}

// crashStep is one unit of the workload; acknowledgment is per step.
type crashStep struct {
	name   string
	reopen bool // close the session and reopen the database first
	run    func(s *core.Session) error
}

// sqlStep wraps one Fuzzy SQL statement as a workload step.
func sqlStep(src string) crashStep {
	return crashStep{name: src, run: func(s *core.Session) error {
		_, err := execScript(s, src)
		return err
	}}
}

// crashSteps builds the workload: DDL, single inserts with varied degrees,
// a generated batch append (one transaction), checkpoints, predicate
// DELETEs (a fresh logged heap the catalog swaps in), a DROP/recreate, and
// persistent-index lifecycle (CREATE INDEX build, inserts into an index's
// tail, the DELETE rebuild, DROP INDEX) — split across a session restart
// so recovery itself is also run under fault injection. One DELETE
// removes the small first tuple of a relation packed [small, big, big]
// [big]: the fresh heap has the old file's page count and last page byte
// for byte, so verifyStats checks that Open adopts the checkpoint entry of
// the heap the catalog names, with its statistics, and not the old one's.
func crashSteps(t *testing.T) []crashStep {
	t.Helper()
	schema, err := Schema("W", 128)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Generate(Params{
		Name: "W", Tuples: 40, TupleBytes: 128,
		Fanout: 4, Width: 8, Jitter: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("b", storage.PageSize*2/5) // a page holds two, and a small tuple beside them
	return []crashStep{
		sqlStep(`CREATE TABLE A (K NUMBER, NAME STRING)`),
		sqlStep(`INSERT INTO A VALUES (1, 'a') DEGREE 0.5`),
		sqlStep(`INSERT INTO A VALUES (2, 'b')`),
		sqlStep(`CREATE TABLE B (K NUMBER, V NUMBER)`),
		sqlStep(`INSERT INTO B VALUES (1, 10) DEGREE 0.25`),
		sqlStep(`INSERT INTO B VALUES (2, 20) DEGREE 0.875`),
		{name: "create W", run: func(s *core.Session) error {
			if _, err := s.Catalog().CreateRelation("W", schema); err != nil {
				return err
			}
			return s.Catalog().Save()
		}},
		{name: "batch append W", run: func(s *core.Session) error {
			h, err := s.Catalog().Relation("W")
			if err != nil {
				return err
			}
			return h.AppendAll(batch)
		}},
		sqlStep(`CHECKPOINT`),
		sqlStep(`INSERT INTO A VALUES (3, 'c') DEGREE 0.75`),

		{name: "restart", reopen: true, run: func(*core.Session) error { return nil }},
		sqlStep(`CREATE TABLE P (K NUMBER, S STRING)`),
		sqlStep(`INSERT INTO P VALUES (0, 'x') DEGREE 0.5`),
		sqlStep(`INSERT INTO P VALUES (1, '` + big + `')`),
		sqlStep(`INSERT INTO P VALUES (2, '` + big + `') DEGREE 0.25`),
		sqlStep(`INSERT INTO P VALUES (3, '` + big + `')`),
		sqlStep(`CHECKPOINT`),
		sqlStep(`DELETE FROM P WHERE P.K = 0`),
		sqlStep(`DELETE FROM B WHERE B.K = 1`),
		sqlStep(`INSERT INTO B VALUES (3, 30)`),
		// Index lifecycle under fault injection: the CREATE INDEX build,
		// inserts after it that grow b_v's tail (including the
		// transactional ones below), the DELETE contents-swap rebuild, and
		// DROP INDEX. Every
		// reopened survivor cross-checks its indexes via verifyIndexes.
		// B's one-tuple tail makes the DELETE leave exactly as many tuples
		// as b_v has entries, in another order: an entry file that
		// survived the swap would pass Open's length check.
		sqlStep(`CREATE INDEX b_v ON B (V)`),
		sqlStep(`INSERT INTO B VALUES (7, 5)`),
		sqlStep(`DROP TABLE A`),
		sqlStep(`CREATE TABLE A (K NUMBER, NAME STRING)`),
		sqlStep(`CREATE INDEX a_k ON A (K)`),
		sqlStep(`INSERT INTO A VALUES (9, 'z') DEGREE 0.125`),
		sqlStep(`CHECKPOINT`),
		sqlStep(`INSERT INTO A VALUES (10, 'y')`),
		sqlStep(`DELETE FROM B WHERE B.K = 2`),
		sqlStep(`DROP INDEX a_k`),
		sqlStep(`CREATE INDEX a_k ON A (K)`),

		// Explicit transactions. The committed-state snapshots only move
		// at COMMIT, so a fault anywhere inside a transaction must
		// recover to a state without any of its writes. One transaction
		// commits, one rolls back, and one is still open when the
		// workload ends — the trailing crash points all land inside it.
		sqlStep(`BEGIN`),
		sqlStep(`INSERT INTO A VALUES (11, 'tx') DEGREE 0.5`),
		sqlStep(`INSERT INTO B VALUES (4, 40) DEGREE 0.375`),
		sqlStep(`COMMIT`),
		sqlStep(`BEGIN`),
		sqlStep(`INSERT INTO A VALUES (12, 'undone')`),
		sqlStep(`ROLLBACK`),
		sqlStep(`INSERT INTO A VALUES (13, 'x') DEGREE 0.25`),
		sqlStep(`BEGIN`),
		sqlStep(`INSERT INTO B VALUES (5, 50) DEGREE 0.625`),
		sqlStep(`INSERT INTO B VALUES (6, 60)`),
	}
}

// runCrashSteps executes the workload over fs, returning how many steps
// were acknowledged before the first error. A small buffer pool keeps
// eviction (and therefore the no-steal/WAL-sync interplay) in play.
func runCrashSteps(fs storage.FS, steps []crashStep, after func(*core.Session)) (acked int, err error) {
	sess, err := core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 8, FS: fs})
	if err != nil {
		return 0, err
	}
	for _, st := range steps {
		if st.reopen {
			if err := sess.Close(); err != nil {
				return acked, err
			}
			sess, err = core.OpenSessionOptions("db", core.SessionOptions{BufferPages: 8, FS: fs})
			if err != nil {
				return acked, err
			}
		}
		if err := st.run(sess); err != nil {
			sess.Close()
			return acked, err
		}
		acked++
		if after != nil {
			after(sess)
		}
	}
	return acked, sess.Close()
}

// dbState is a logical snapshot: every relation's full contents.
type dbState map[string]*frel.Relation

// snapshotDB captures the committed contents of every relation — the
// state recovery reproduces. Mid-transaction snapshots therefore exclude
// the open transaction's appends, exactly as a crash would.
func snapshotDB(t *testing.T, s *core.Session) dbState {
	t.Helper()
	st := make(dbState)
	for _, name := range s.Catalog().Relations() {
		h, err := s.Catalog().Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := exec.Collect(exec.NewHeapSourceAt(h, h.CommittedTuples()))
		if err != nil {
			t.Fatal(err)
		}
		st[name] = rel
	}
	return st
}

// verifyIndexes checks every index the recovered catalog knows about
// against a from-scratch build over its base relation: an index written
// once holds the tids of a prefix of the relation (later tuples are its
// tail), in exactly the stable Definition 3.1 order of that prefix. An
// index lost to the crash (absent from the catalog) is acceptable; an
// inconsistent one is not.
func verifyIndexes(t *testing.T, s *core.Session, label string) {
	t.Helper()
	cat := s.Catalog()
	for _, name := range cat.Indexes() {
		ix, ok := cat.LookupIndex(name)
		if !ok {
			continue
		}
		h, err := cat.Relation(ix.Rel)
		if err != nil {
			t.Errorf("%s: index %s: base relation: %v", label, name, err)
			continue
		}
		rel, err := h.ReadAll()
		if err != nil {
			t.Errorf("%s: index %s: read base: %v", label, name, err)
			continue
		}
		got, err := storage.ReadIndexEntries(ix.Heap())
		if err != nil {
			t.Errorf("%s: index %s: read entries: %v", label, name, err)
			continue
		}
		if len(got) > rel.Len() {
			t.Errorf("%s: index %s has %d entries over %d tuples", label, name, len(got), rel.Len())
			continue
		}
		want := make([]uint64, len(got))
		for i := range want {
			want[i] = uint64(i)
		}
		sort.SliceStable(want, func(i, j int) bool {
			return frel.Compare(rel.Tuples[want[i]].Values[ix.Pos()], rel.Tuples[want[j]].Values[ix.Pos()]) < 0
		})
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: index %s entry %d = tid %d, rebuild has %d", label, name, i, got[i], want[i])
				break
			}
		}
	}
}

// verifyFiles checks that the directory holds exactly the heap files of
// the recovered catalog: one per relation and one per index with an entry
// file. A heap that a crash left without a catalog entry naming it (a
// CREATE TABLE before its save, a DROP or DELETE after it) is gone.
func verifyFiles(t *testing.T, s *core.Session, fs storage.FS, label string) {
	t.Helper()
	cat := s.Catalog()
	var want []string
	for _, name := range cat.Relations() {
		h, err := cat.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, h.Name()+".heap")
	}
	for _, name := range cat.Indexes() {
		if ix, ok := cat.LookupIndex(name); ok && ix.Heap() != nil {
			want = append(want, ix.Heap().Name()+".heap")
		}
	}
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range names {
		if strings.HasSuffix(n, ".heap") {
			got = append(got, n)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s: heap files %v, catalog names %v", label, got, want)
	}
}

// verifyStats checks every relation's planner statistics against the ones
// a fresh scan of its heap builds: equal encodings, so every field bit for
// bit and every KMV hash. Statistics adopted from a checkpoint entry that
// describes another file, or observed over a tail redo did not replay,
// differ.
func verifyStats(t *testing.T, s *core.Session, label string) {
	t.Helper()
	cat := s.Catalog()
	for _, name := range cat.Relations() {
		h, err := cat.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Stats()
		if err != nil {
			t.Errorf("%s: %s statistics: %v", label, name, err)
			continue
		}
		rel, err := h.ReadAll()
		if err != nil {
			t.Errorf("%s: %s: read: %v", label, name, err)
			continue
		}
		want := frel.NewTableStats(len(h.Schema.Attrs))
		want.ObserveAll(rel.Tuples)
		if h.NumTuples() != int64(rel.Len()) || !bytes.Equal(frel.AppendStats(nil, got), frel.AppendStats(nil, want)) {
			t.Errorf("%s: %s: %d tuples counted, %d read, statistics of %d rows, a scan's of %d",
				label, name, h.NumTuples(), rel.Len(), got.Rows, want.Rows)
		}
	}
}

// equal compares two snapshots exactly: same relations, same tuples in the
// same order, identical membership degrees (zero tolerance).
func (st dbState) equal(other dbState) bool {
	if len(st) != len(other) {
		return false
	}
	for name, rel := range st {
		o, ok := other[name]
		if !ok || !rel.Equal(o, 0) {
			return false
		}
	}
	return true
}

// String renders a snapshot for failure messages.
func (st dbState) String() string {
	out := ""
	for name, rel := range st {
		out += fmt.Sprintf("%s: %d tuples; ", name, rel.Len())
	}
	if out == "" {
		return "(empty)"
	}
	return out
}
