package exec

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fuzzy"
)

// Partitioning and the worker pool of the flat-column sweeps (sweep.go).
// After both inputs are sorted on the Definition 3.1 interval order ≼, the
// sorted runs split into independent support-interval ranges: wherever
// every interval seen so far ends before the next interval begins, no join
// pair can cross, and the two sides of the cut join independently. These
// atomic cuts are where the Rng(r) window of a sweep empties. A sweep
// needs only a few of them, one per morsel boundary, so the cutter below
// does not walk the merge of both inputs to find every one: it jumps to
// evenly spaced targets by binary search and steps forward from each to
// the next atomic cut. No intersecting pair straddles a cut, so
// concatenating the outputs of sweeps over consecutive spans, in order,
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

// morselSpans cuts the range columns of both begin-sorted inputs into the
// spans of the morsels of a sweep on the given number of workers. The
// inputs are merged by support begin, an inner interval widened by the
// band tolerance (an inner value s joins outer r when support(s ⊕ tol)
// intersects support(r)), an outer tuple first on a tie. A state (o, i)
// of that merge is an atomic cut when every interval of outer[:o] and
// inner[:i] ends strictly before the next one begins. The targets lie
// every morselGrain tuples of the merge; from the state at each target,
// found by binary search, the cutter steps forward to the first atomic
// cut before the next target and makes it a boundary, or makes none. The
// support ends of the prefix before a state are maximized in one running
// maximum, advanced input by input as the states move forward.
func morselSpans(outer, inner []fuzzy.Trapezoid, tol fuzzy.Trapezoid, workers int) []partRange {
	no, ni := len(outer), len(inner)
	total := no + ni
	grain := morselGrain(total, workers)
	spans := make([]partRange, 0, total/grain+1)
	maxHi := math.Inf(-1) // the latest end of outer[:o] and inner[:i]
	o, i := 0, 0
	po, pi := 0, 0 // the last boundary
	for t := grain; t < total; t += grain {
		to := mergeSplit(outer, inner, tol.A, t)
		for ; o < to; o++ {
			if outer[o].D > maxHi {
				maxHi = outer[o].D
			}
		}
		for ; i < t-to; i++ {
			if hi := inner[i].D + tol.D; hi > maxHi {
				maxHi = hi
			}
		}
		for end := min(t+grain, total); o+i < end; {
			takeOuter := i == ni || o < no && outer[o].A <= inner[i].A+tol.A
			var lo, hi float64
			if takeOuter {
				lo, hi = outer[o].A, outer[o].D
			} else {
				lo, hi = inner[i].A+tol.A, inner[i].D+tol.D
			}
			if lo > maxHi {
				spans = append(spans, partRange{po, o, pi, i})
				po, pi = o, i
				break
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
	}
	return append(spans, partRange{po, no, pi, ni})
}

// mergeSplit returns how many of the first t tuples of the merge of outer
// and inner (by support begin, inner begins shifted by tolA, an outer
// tuple first on a tie) are outer tuples: the least o at which inner
// tuple t−o−1, if any, precedes outer tuple o, if any.
func mergeSplit(outer, inner []fuzzy.Trapezoid, tolA float64, t int) int {
	lo, hi := max(0, t-len(inner)), min(t, len(outer))
	return lo + sort.Search(hi-lo, func(k int) bool {
		o := lo + k
		i := t - o
		return i == 0 || o == len(outer) || inner[i-1].A+tolA < outer[o].A
	})
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
