package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// saved is the form `--workload all` prints.
type saved struct {
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Workloads map[string]*output `json:"workloads"`
}

// compareRuns prints, per workload and metric, the value of two runs and
// by what share of the first the second is worse, and judges that share
// against the metric's bound in BENCHMARK.json. Metrics without a bound
// (per-layer ones) are shown, not judged. It reports whether every judged
// metric passed and no run had a failed statement.
func compareRuns(sp *spec, a, b map[string]*output, w io.Writer) bool {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		specs[m.Name] = m
	}
	ok := true
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb == nil {
			fmt.Fprintf(w, "%-13s missing from the second run\n", name)
			ok = false
			continue
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-13s failed statements: %d of %d, then %d of %d\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		var metrics []string
		for m := range ra.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va := ra.Metrics[m].Value
			mb, present := rb.Metrics[m]
			if !present {
				fmt.Fprintf(w, "%-13s %-26s missing from the second run\n", name, m)
				ok = false
				continue
			}
			worse := 0.0
			if va != 0 {
				worse = (mb.Value - va) / math.Abs(va)
				if specs[m].Better == "higher" {
					worse = -worse
				}
			}
			verdict, bound := "-", "-"
			if s := specs[m]; s.Bound > 0 {
				bound = fmt.Sprintf("%.2f", s.Bound)
				verdict = "pass"
				if worse > s.Bound {
					verdict = "FAIL"
					ok = false
				}
			}
			fmt.Fprintf(w, "%-13s %-26s %14.6g %14.6g %+8.1f%% %7s  %s\n", name, m, va, mb.Value, 100*worse, bound, verdict)
		}
	}
	return ok
}

func loadSaved(path string) (map[string]*output, error) {
	var s saved
	if err := readJSON(path, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Workloads == nil {
		return nil, fmt.Errorf("%s: not the output of --workload all", path)
	}
	return s.Workloads, nil
}

// compareFiles implements -compare parent.json change.json.
func compareFiles(paths []string, w io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two files, each the output of --workload all")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	a, err := loadSaved(paths[0])
	if err != nil {
		return err
	}
	b, err := loadSaved(paths[1])
	if err != nil {
		return err
	}
	if !compareRuns(sp, a, b, w) {
		return fmt.Errorf("the second run is worse than the first by more than a bound")
	}
	return nil
}

// selfcheck runs every workload twice on the same commit, the two runs
// of a workload back to back, and compares the two sets of end-to-end
// metrics in both directions: neither may be worse than the other by more
// than a bound. It compares single runs, so it is stricter than the
// driver, which compares medians of ten.
func (b *bench) selfcheck(w io.Writer) error {
	sets := [2]map[string]*output{{}, {}}
	for _, wl := range b.spec.Workloads {
		for i := range sets {
			out, err := b.workload(wl.Name, false)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			sets[i][wl.Name] = out
		}
	}
	ok := compareRuns(b.spec, sets[0], sets[1], w)
	fmt.Fprintln(w)
	ok = compareRuns(b.spec, sets[1], sets[0], w) && ok
	if !ok {
		return fmt.Errorf("two runs of the same commit disagree by more than a bound")
	}
	return nil
}
