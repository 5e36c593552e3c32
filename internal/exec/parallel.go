package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// The parallel partitioned merge-join. After both inputs are sorted on the
// Definition 3.1 interval order ≼, the sorted runs split into independent
// support-interval ranges: wherever every interval seen so far ends before
// the next interval begins, no join pair can cross, and the two sides of
// the cut join independently. The partitioner below finds these cuts —
// widening past overlapping intervals exactly like the Rng(r) window of
// the serial merge-join keeps a tuple buffered while anything still
// intersects it — and a bounded worker pool runs one serial merge-join per
// partition. Concatenating the partition outputs in order reproduces the
// serial operator's output sequence tuple for tuple, so degrees, duplicate
// multiplicity, and even the emission order are preserved. The only
// observable difference is that Counters.Comparisons may come out slightly
// lower: a partition boundary pre-drops dangling tuples that the serial
// window examines when they enter the buffer in the same extend batch as a
// range's real members. The EXPLAIN ANALYZE counters (OpStats) do not
// share this caveat — they count only support-intersecting pairs, which
// no join-independent cut can split, so analyzed totals are identical at
// any worker count.

// DefaultParallelism is the worker count used when a caller passes 0.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// partRange is one partition: outer[oLo:oHi] can only join inner[iLo:iHi].
type partRange struct {
	oLo, oHi int
	iLo, iHi int
}

// weight is the partition's work proxy for balancing.
func (p partRange) weight() int { return (p.oHi - p.oLo) + (p.iHi - p.iLo) }

// atomicCuts scans both begin-sorted inputs and returns the cut points
// (o, i) at which outer[:o] ∪ inner[:i] is join-independent from the rest:
// every support interval consumed before the cut ends strictly before
// every interval after it begins. The inner intervals are widened by the
// band tolerance (an inner value s joins outer r when support(s ⊕ tol)
// intersects support(r)), so no band-join pair crosses a cut either.
func atomicCuts(outer, inner []frel.Tuple, oi, ii int, tol fuzzy.Trapezoid) []partRange {
	var cuts [][2]int
	maxHi := math.Inf(-1)
	o, i := 0, 0
	for o < len(outer) || i < len(inner) {
		var lo, hi float64
		takeOuter := false
		if o < len(outer) {
			olo, _ := outer[o].Values[oi].Num.Support()
			if i < len(inner) {
				slo, _ := inner[i].Values[ii].Num.Support()
				takeOuter = olo <= slo+tol.A
			} else {
				takeOuter = true
			}
		}
		if takeOuter {
			lo, hi = outer[o].Values[oi].Num.Support()
		} else {
			lo, hi = inner[i].Values[ii].Num.Support()
			lo += tol.A
			hi += tol.D
		}
		// Everything consumed so far ends before this interval begins:
		// the ranges on either side cannot produce a joining pair.
		if (o > 0 || i > 0) && lo > maxHi {
			cuts = append(cuts, [2]int{o, i})
		}
		if hi > maxHi {
			maxHi = hi
		}
		if takeOuter {
			o++
		} else {
			i++
		}
	}
	ranges := make([]partRange, 0, len(cuts)+1)
	po, pi := 0, 0
	for _, c := range cuts {
		ranges = append(ranges, partRange{po, c[0], pi, c[1]})
		po, pi = c[0], c[1]
	}
	ranges = append(ranges, partRange{po, len(outer), pi, len(inner)})
	return ranges
}

// balanceParts greedily coalesces consecutive atomic ranges into at most
// maxParts partitions of roughly equal tuple weight. Atomic ranges are
// never split, so partition boundaries stay join-independent.
func balanceParts(ranges []partRange, maxParts int) []partRange {
	if maxParts < 1 {
		maxParts = 1
	}
	if len(ranges) <= maxParts {
		return ranges
	}
	total := 0
	for _, r := range ranges {
		total += r.weight()
	}
	target := (total + maxParts - 1) / maxParts
	out := make([]partRange, 0, maxParts)
	cur := ranges[0]
	curWeight := cur.weight()
	for _, r := range ranges[1:] {
		// Close the current partition when it reached its share, unless
		// the remaining ranges must all fit in the remaining slots.
		if curWeight >= target && len(out)+1 < maxParts {
			out = append(out, cur)
			cur, curWeight = r, r.weight()
			continue
		}
		cur.oHi, cur.iHi = r.oHi, r.iHi
		curWeight += r.weight()
	}
	return append(out, cur)
}

// runParallel executes fn(0..n-1) on at most workers goroutines and
// returns the first error.
func runParallel(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				errOnce.Do(func() { firstEr = err })
				return
			}
			// A pool that keeps every P busy for a whole sweep makes the
			// short statements of other sessions (an INSERT whose commit
			// just returned from fsync) wait for the sweep; yielding
			// between work items lets them run, and costs nothing when
			// nothing else is runnable.
			runtime.Gosched()
		}
	}
	// The caller is one of the workers: it holds a P already, so only
	// workers-1 goroutines have to be started and waited for.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstEr
}

// ParallelMergeJoin is the partitioned, multi-worker form of the extended
// merge-join. Inputs must be sorted like for MergeJoin; the answer is the
// identical fuzzy relation, in the identical order. Workers <= 1 degrades
// to the serial operator; 0 means DefaultParallelism.
type ParallelMergeJoin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Extra                JoinPred
	Counters             *Counters
	Tol                  fuzzy.Trapezoid
	Workers              int

	// Stats, when non-nil, is shared by every partition-local sub-join:
	// the partitions accumulate into the same node, and because the node's
	// counters only measure partition-invariant quantities (intersecting
	// pairs, per-outer-tuple Rng(r) lengths), the aggregated totals equal
	// a serial run's exactly. See MergeJoin.Stats.
	Stats *OpStats

	schema *frel.Schema
	oi, ii int
}

// NewParallelMergeJoin builds a parallel band merge-join with the given
// worker count (0 = GOMAXPROCS).
func NewParallelMergeJoin(outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra JoinPred, counters *Counters, workers int) (*ParallelMergeJoin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if !tol.Valid() {
		return nil, fmt.Errorf("exec: invalid band tolerance %v", tol)
	}
	if counters == nil {
		counters = &Counters{}
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	return &ParallelMergeJoin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Extra: extra, Counters: counters, Tol: tol, Workers: workers,
		schema: outer.Schema().Join(inner.Schema()),
		oi:     oi, ii: ii,
	}, nil
}

// Schema implements Source.
func (j *ParallelMergeJoin) Schema() *frel.Schema { return j.schema }

// collectSorted drains src, verifying the Definition 3.1 sort order the
// partitioner relies on.
func collectSorted(src Source, idx int, side string) ([]frel.Tuple, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var tuples []frel.Tuple
	prevBegin := math.Inf(-1)
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		lo, _ := t.Values[idx].Num.Support()
		if lo < prevBegin {
			return nil, fmt.Errorf("exec: merge-join %s input is not sorted by the Definition 3.1 order", side)
		}
		prevBegin = lo
		tuples = append(tuples, t)
	}
	return tuples, it.Err()
}

// Open implements Source: it partitions both (materialized) inputs, joins
// the partitions on the worker pool, and returns an iterator replaying the
// concatenated partition outputs in order.
func (j *ParallelMergeJoin) Open() (Iterator, error) {
	outer, err := collectSorted(j.Outer, j.oi, "outer")
	if err != nil {
		return nil, err
	}
	inner, err := collectSorted(j.Inner, j.ii, "inner")
	if err != nil {
		return nil, err
	}
	// Over-partition a little so stragglers (ranges with skewed fanout)
	// can be balanced across workers.
	parts := balanceParts(atomicCuts(outer, inner, j.oi, j.ii, j.Tol), j.Workers*4)
	results := make([][]frel.Tuple, len(parts))
	err = runParallel(j.Workers, len(parts), func(i int) error {
		p := parts[i]
		if p.oHi == p.oLo || p.iHi == p.iLo {
			// A side is empty: nothing joins in this range. A serial run
			// still observes an empty Rng(r) scan for each outer tuple.
			if j.Stats != nil {
				for k := p.oLo; k < p.oHi; k++ {
					j.Stats.ObserveRng(0)
				}
			}
			return nil
		}
		mj, err := NewBandMergeJoin(
			NewMemSource(&frel.Relation{Schema: j.Outer.Schema(), Tuples: outer[p.oLo:p.oHi]}),
			NewMemSource(&frel.Relation{Schema: j.Inner.Schema(), Tuples: inner[p.iLo:p.iHi]}),
			j.OuterAttr, j.InnerAttr, j.Tol, j.Extra, j.Counters)
		if err != nil {
			return err
		}
		mj.Stats = j.Stats
		it, err := mj.Open()
		if err != nil {
			return err
		}
		defer it.Close()
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			results[i] = append(results[i], t)
		}
		return it.Err()
	})
	if err != nil {
		return nil, err
	}
	return &partsIterator{parts: results}, nil
}

// partsIterator replays per-partition result slices in partition order.
type partsIterator struct {
	parts [][]frel.Tuple
	p, i  int
}

func (it *partsIterator) Next() (frel.Tuple, bool) {
	for it.p < len(it.parts) {
		if it.i < len(it.parts[it.p]) {
			t := it.parts[it.p][it.i]
			it.i++
			return t, true
		}
		it.p++
		it.i = 0
	}
	return frel.Tuple{}, false
}

func (it *partsIterator) Err() error { return nil }
func (it *partsIterator) Close()     {}
