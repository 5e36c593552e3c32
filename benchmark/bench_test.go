package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark re-executes itself for set-up, the gate and the measured
// phases; under `go test` "itself" is the test binary, which takes a
// child's command line here instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads at tiny scale, untraced and traced,
// and requires exactly the workloads and metrics BENCHMARK.json lists,
// each with its unit, every answer verified.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	for trace, specs := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "all", "--seed", "3", "--seconds", "30", "--scale", "tiny", "--trace", string(rune('0' + trace))}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got saved
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if len(got.Workloads) != len(sp.Workloads) {
			t.Errorf("trace %d: %d workloads reported, %d listed", trace, len(got.Workloads), len(sp.Workloads))
		}
		for _, w := range sp.Workloads {
			out := got.Workloads[w.Name]
			if out == nil {
				t.Errorf("trace %d: workload %s missing", trace, w.Name)
				continue
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("trace %d %s: correct=%v attempted=%d failed=%d\n%s", trace, w.Name, out.Correct, out.Attempted, out.Failed, stderr.String())
			}
			if len(out.Metrics) != len(specs) {
				t.Errorf("trace %d %s: %d metrics reported, %d listed", trace, w.Name, len(out.Metrics), len(specs))
			}
			for _, ms := range specs {
				if !nameRE.MatchString(ms.Name) {
					t.Errorf("metric name %q", ms.Name)
				}
				m, ok := out.Metrics[ms.Name]
				if !ok {
					t.Errorf("trace %d %s: metric %s missing", trace, w.Name, ms.Name)
				} else if m.Unit != ms.Unit || m.Unit == "" {
					t.Errorf("trace %d %s: metric %s has unit %q, listed %q", trace, w.Name, ms.Name, m.Unit, ms.Unit)
				}
				if trace == 0 && ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, ms.Name, m.Value)
				}
			}
		}
	}
}
