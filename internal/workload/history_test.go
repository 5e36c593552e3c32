package workload

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/pkg/fuzzydb"
)

// TestConcurrentTransactionHistory is the snapshot-isolation property
// test: N writer sessions run randomized interleaved transactions
// (commit, rollback, conflict-retry) against one table while reader
// sessions — plain statements and multi-read read-only transactions —
// continuously observe it. Every observation (tuples plus membership
// degrees) is recorded with its wall-clock bounds and checked afterwards
// against what snapshot isolation over a single committed history allows:
//
//  1. Atomicity: a visible transaction is visible whole — all its rows,
//     with exactly the degrees it wrote. No torn transactions.
//  2. No rolled-back (or merely open) transaction is ever visible.
//  3. Snapshots are cuts of one committed order: the visible sets of any
//     two observations are comparable under inclusion, and each reader's
//     successive observations are monotonically non-decreasing.
//  4. Real time: a transaction whose commit was acknowledged before an
//     observation began is visible in it; one that began after the
//     observation ended is not.
//  5. The final state equals a single-threaded oracle replay: exactly
//     the committed transactions' rows, nothing else.
//
// HISTORY_SEED varies the randomized schedule; CI sweeps several seeds
// under the race detector.
func TestConcurrentTransactionHistory(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("HISTORY_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad HISTORY_SEED %q: %v", v, err)
		}
		seed = n
	}

	const (
		writers    = 4
		readers    = 3
		rowsPerTxn = 3
	)
	txnsPerWriter := 12
	if testing.Short() {
		txnsPerWriter = 4
	}

	db, err := fuzzydb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE H (TXN NUMBER, SEQ NUMBER)`); err != nil {
		t.Fatal(err)
	}

	// rowDegree is the membership degree transaction id writes on its
	// seq-th row: sixteenths, exact in binary floating point, so the
	// checker can compare degrees without tolerance.
	rowDegree := func(id, seq int) float64 {
		return float64(1+(id*rowsPerTxn+seq)%15) / 16
	}

	type txnRecord struct {
		id        int
		beganAt   time.Time // before the transaction's BEGIN was issued
		ackedAt   time.Time // after Commit returned; zero unless committed
		committed bool
	}
	var (
		histMu sync.Mutex
		hist   []txnRecord
	)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1000))
			sess, err := db.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			ctx := context.Background()
			for i := 0; i < txnsPerWriter; i++ {
				id := w*txnsPerWriter + i
				rollback := rng.Intn(4) == 0 // every 4th transaction aborts itself
				rec := txnRecord{id: id, beganAt: time.Now()}
				for {
					if err := sess.Begin(ctx); err != nil {
						t.Error(err)
						return
					}
					err := error(nil)
					for seq := 0; seq < rowsPerTxn && err == nil; seq++ {
						err = sess.Exec(fmt.Sprintf(
							`INSERT INTO H VALUES (%d, %d) DEGREE %v`, id, seq, rowDegree(id, seq)))
						if err == nil && rng.Intn(3) == 0 {
							time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						}
					}
					if err == nil && rollback {
						if err := sess.Rollback(ctx); err != nil {
							t.Error(err)
							return
						}
						break
					}
					if err == nil {
						err = sess.Commit(ctx)
					}
					if err == nil {
						rec.ackedAt = time.Now()
						rec.committed = true
						break
					}
					if fe, ok := fuzzydb.AsError(err); ok && fe.Code == fuzzydb.CodeTxnConflict {
						continue // aborted and rolled back; retry from BEGIN
					}
					t.Error(err)
					return
				}
				histMu.Lock()
				hist = append(hist, rec)
				histMu.Unlock()
			}
		}(w)
	}

	// Observations. visible maps transaction id to the rows seen of it:
	// seq -> degree.
	type obs struct {
		reader     int
		start, end time.Time
		inTxn      bool // one read of a multi-read read-only transaction
		visible    map[int]map[int]float64
	}
	var (
		obsMu sync.Mutex
		all   []obs
	)
	observe := func(reader int, sess *fuzzydb.Session, inTxn bool) (obs, error) {
		o := obs{reader: reader, start: time.Now(), inTxn: inTxn, visible: make(map[int]map[int]float64)}
		res, err := sess.Query(`SELECT H.TXN, H.SEQ FROM H`)
		if err != nil {
			return o, err
		}
		o.end = time.Now()
		for i := 0; i < res.Len(); i++ {
			row := res.Row(i)
			id, err1 := strconv.Atoi(row[0])
			seq, err2 := strconv.Atoi(row[1])
			if err1 != nil || err2 != nil {
				return o, fmt.Errorf("unparsable row %v", row)
			}
			if o.visible[id] == nil {
				o.visible[id] = make(map[int]float64)
			}
			o.visible[id][seq] = res.Degree(i)
		}
		return o, nil
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(seed + 7777 + int64(r)))
			sess, err := db.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			ctx := context.Background()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(3) == 0 {
					// A read-only transaction: every read inside it must
					// return the identical BEGIN-time snapshot. Begin takes
					// that snapshot, so the reads start, for the real-time
					// check, before Begin: a commit acknowledged between
					// Begin and the first query is rightly invisible.
					began := time.Now()
					if err := sess.Begin(ctx); err != nil {
						t.Error(err)
						return
					}
					var reads []obs
					for k := 0; k < 3; k++ {
						o, err := observe(r, sess, true)
						if err != nil {
							t.Error(err)
							return
						}
						o.start = began
						reads = append(reads, o)
						time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
					if err := sess.Commit(ctx); err != nil {
						t.Error(err)
						return
					}
					for k := 1; k < len(reads); k++ {
						if !sameVisible(reads[0].visible, reads[k].visible) {
							t.Errorf("reader %d: read-only transaction's read %d differs from its first read", r, k)
						}
					}
					// Only the first read enters the history record: the
					// later ones are intentionally stale and would fail
					// the real-time check.
					obsMu.Lock()
					all = append(all, reads[0])
					obsMu.Unlock()
					continue
				}
				o, err := observe(r, sess, false)
				if err != nil {
					t.Error(err)
					return
				}
				obsMu.Lock()
				all = append(all, o)
				obsMu.Unlock()
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Oracle: the committed transactions and their full row sets.
	committed := make(map[int]txnRecord)
	for _, rec := range hist {
		if rec.committed {
			committed[rec.id] = rec
		}
	}
	t.Logf("history: %d transactions (%d committed), %d observations",
		len(hist), len(committed), len(all))

	// (1) + (2): every visible transaction is committed and complete.
	for _, o := range all {
		for id, rows := range o.visible {
			if _, ok := committed[id]; !ok {
				t.Errorf("rolled-back or unknown transaction %d visible in an observation", id)
				continue
			}
			if len(rows) != rowsPerTxn {
				t.Errorf("transaction %d half-visible: %d of %d rows", id, len(rows), rowsPerTxn)
			}
			for seq, deg := range rows {
				if want := rowDegree(id, seq); deg != want {
					t.Errorf("transaction %d row %d: degree %v, want %v", id, seq, deg, want)
				}
			}
		}
	}

	// (3a): all observations' visible sets are comparable under inclusion
	// — they are cuts of one append-only committed history.
	ids := func(o obs) map[int]bool {
		s := make(map[int]bool, len(o.visible))
		for id := range o.visible {
			s[id] = true
		}
		return s
	}
	sorted := append([]obs(nil), all...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if len(sorted[j].visible) < len(sorted[i].visible) {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i := 1; i < len(sorted); i++ {
		if !subset(ids(sorted[i-1]), ids(sorted[i])) {
			t.Errorf("observations are not totally ordered by inclusion: %v ⊄ %v",
				keys(ids(sorted[i-1])), keys(ids(sorted[i])))
			break
		}
	}

	// (3b): each reader's successive observations grow monotonically.
	perReader := make(map[int][]obs)
	for _, o := range all {
		perReader[o.reader] = append(perReader[o.reader], o)
	}
	for r, seq := range perReader {
		for i := 1; i < len(seq); i++ {
			if !subset(ids(seq[i-1]), ids(seq[i])) {
				t.Errorf("reader %d: observation %d lost transactions visible in observation %d", r, i, i-1)
				break
			}
		}
	}

	// (4): real-time bounds against the commit acknowledgments.
	for _, o := range all {
		for id, rec := range committed {
			if rec.ackedAt.Before(o.start) {
				if _, ok := o.visible[id]; !ok {
					t.Errorf("transaction %d acknowledged at %v but invisible to an observation starting %v",
						id, rec.ackedAt, o.start)
				}
			}
		}
		for id := range o.visible {
			if rec, ok := committed[id]; ok && rec.beganAt.After(o.end) {
				t.Errorf("transaction %d began at %v yet is visible in an observation ending %v",
					id, rec.beganAt, o.end)
			}
		}
	}

	// (5): final state = oracle replay of the committed transactions.
	final, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	o, err := observe(-1, final, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.visible) != len(committed) {
		t.Errorf("final state holds %d transactions, oracle committed %d", len(o.visible), len(committed))
	}
	for id := range committed {
		rows, ok := o.visible[id]
		if !ok || len(rows) != rowsPerTxn {
			t.Errorf("final state misses transaction %d (have %d rows)", id, len(rows))
			continue
		}
		for seq, deg := range rows {
			if want := rowDegree(id, seq); deg != want {
				t.Errorf("final state: transaction %d row %d degree %v, want %v", id, seq, deg, want)
			}
		}
	}
}

// sameVisible reports whether two observations saw identical rows and
// degrees.
func sameVisible(a, b map[int]map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, rows := range a {
		or, ok := b[id]
		if !ok || len(or) != len(rows) {
			return false
		}
		for seq, deg := range rows {
			if od, ok := or[seq]; !ok || od != deg {
				return false
			}
		}
	}
	return true
}

func subset(a, b map[int]bool) bool {
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
