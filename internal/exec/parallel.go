package exec

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fuzzy"
)

// Partitioning and the worker pool of the flat-column sweeps (sweep.go).
// After both inputs are sorted on the Definition 3.1 interval order ≼, the
// sorted runs split into independent support-interval ranges: wherever
// every interval seen so far ends before the next interval begins, no join
// pair can cross, and the two sides of the cut join independently. The
// partitioner below finds these cuts, widening past overlapping intervals
// exactly like the Rng(r) window of a sweep keeps a tuple in range while
// anything still intersects it. No intersecting pair straddles a cut, so
// concatenating the outputs of sweeps over consecutive ranges, in order,
// reproduces the serial output sequence tuple for tuple: degrees,
// duplicate multiplicity and even the emission order are preserved, and
// so is the work counted (only support-intersecting pairs are).

// DefaultParallelism is the worker count used when a caller passes 0.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// partRange is one partition: outer[oLo:oHi] can only join inner[iLo:iHi].
type partRange struct {
	oLo, oHi int
	iLo, iHi int
}

// weight is the partition's work proxy for balancing.
func (p partRange) weight() int { return (p.oHi - p.oLo) + (p.iHi - p.iLo) }

// atomicCuts scans the range columns of both begin-sorted inputs
// and returns the ranges between the cut points (o, i) at which
// outer[:o] ∪ inner[:i] is join-independent from the rest: every support
// interval consumed before the cut ends strictly before every interval
// after it begins. The inner intervals are widened by the band tolerance
// (an inner value s joins outer r when support(s ⊕ tol) intersects
// support(r)), so no band-join pair crosses a cut either.
func atomicCuts(outer, inner []fuzzy.Trapezoid, tol fuzzy.Trapezoid) []partRange {
	var cuts [][2]int
	maxHi := math.Inf(-1)
	o, i := 0, 0
	for o < len(outer) || i < len(inner) {
		var lo, hi float64
		takeOuter := false
		if o < len(outer) {
			if i < len(inner) {
				takeOuter = outer[o].A <= inner[i].A+tol.A
			} else {
				takeOuter = true
			}
		}
		if takeOuter {
			lo, hi = outer[o].A, outer[o].D
		} else {
			lo, hi = inner[i].A+tol.A, inner[i].D+tol.D
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

// runParallel executes fn(0..n-1) on at most workers goroutines and
// returns the first error; once a call has failed no further call starts.
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
		failed  atomic.Bool
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				errOnce.Do(func() { firstEr = err })
				failed.Store(true)
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
