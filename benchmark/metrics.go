package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one timed statement: what it was, how it was issued and how
// long the caller waited from sending it to holding its last row.
type sample struct {
	Kind  string `json:"k"` // statement class, or INSERT / TXN_INSERT / BEGIN / COMMIT
	Group string `json:"g"` // join, anti, agg, chain, write (autocommit INSERT) or txn
	Style string `json:"s"` // plain, prepared or cursor
	NS    int64  `json:"ns"`
}

// phaseResult is what one measured phase hands back to the orchestrating
// process (through a JSON file when the phase ran in a child).
type phaseResult struct {
	Samples   []sample           `json:"samples"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Passes    int                `json:"passes"` // timed passes the slowest caller completed
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // first few failures, for the log
	PeakRSSKB int64              `json:"peak_rss_kb"`
	DiskBytes int64              `json:"disk_bytes"`
	UserBytes int64              `json:"user_bytes"`
	Prints    map[string]string  `json:"prints,omitempty"` // answer fingerprints by key
	Layers    map[string]float64 `json:"layers,omitempty"` // per-layer metrics (traced phase)
}

// recorder collects the samples and failures of one statement loop. Each
// loop owns its recorder; merge combines them afterwards.
type recorder struct {
	samples   []sample
	attempted int
	failed    int
	errors    []string
	prints    map[string]string
	inserts   int // acknowledged INSERTs, warm-ups included
}

func newRecorder() *recorder { return &recorder{prints: map[string]string{}} }

func (r *recorder) add(kind, group, style string, d time.Duration) {
	r.attempted++
	r.samples = append(r.samples, sample{kind, group, style, d.Nanoseconds()})
}

// fail counts one attempted statement that errored or was refused.
func (r *recorder) fail(format string, args ...any) {
	r.attempted++
	r.wrong(format, args...)
}

// wrong counts a failure of a statement already counted as attempted: a
// wrong answer. The first few messages are kept for the log.
func (r *recorder) wrong(format string, args ...any) {
	r.failed++
	if len(r.errors) < 5 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// check compares an answer's fingerprint with the one recorded under key
// (the reference from set-up, or the first repetition) and counts a
// mismatch as a wrong answer.
func (r *recorder) check(key, fp string, want map[string]string) {
	if ref, ok := want[key]; ok && ref != fp {
		r.wrong("wrong answer for %s: fingerprint %s, reference %s", key, fp, ref)
		return
	}
	if prev, ok := r.prints[key]; ok && prev != fp {
		r.wrong("answer for %s changed between repetitions: %s then %s", key, prev, fp)
		return
	}
	r.prints[key] = fp
}

// merge adds another caller's recorder. Callers that filed answers under
// the same key read the same data (on served_rw they applied the same
// writes to identical tables), so their fingerprints must agree.
func (r *recorder) merge(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.inserts += o.inserts
	for _, e := range o.errors {
		if len(r.errors) < 5 {
			r.errors = append(r.errors, e)
		}
	}
	for k, v := range o.prints {
		if prev, ok := r.prints[k]; ok && prev != v {
			r.wrong("callers disagree on %s: %s and %s", k, prev, v)
		}
		r.prints[k] = v
	}
}

func (r *recorder) result(elapsed time.Duration, passes int) *phaseResult {
	return &phaseResult{
		Samples: r.samples, ElapsedNS: elapsed.Nanoseconds(), Passes: passes,
		Attempted: r.attempted, Failed: r.failed, Errors: r.errors, Prints: r.prints,
	}
}

// fingerprint identifies an answer by its row count and a hash of its
// rows with their degree bits, independent of row order.
func fingerprint(rows [][]string, degs []float64) string {
	canon := canonical(rows, degs)
	h := fnv.New64a()
	for _, c := range canon {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%d:%016x", len(canon), h.Sum64())
}

// canonical renders each row with its exact degree bits and sorts them.
func canonical(rows [][]string, degs []float64) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, "\x1f") + "\x1e" + strconv.FormatUint(math.Float64bits(degs[i]), 16)
	}
	sort.Strings(out)
	return out
}

// percentile returns the p-quantile (0..1) of sorted nanosecond values by
// linear interpolation, in milliseconds; 0 when there are no values.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[hi]-sorted[lo])
	return v / 1e6
}

// pick returns the sorted durations of the samples keep accepts.
func pick(samples []sample, keep func(sample) bool) []int64 {
	var out []int64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.NS)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func isRead(s sample) bool { return s.Group != "write" && s.Group != "txn" }

func every(sample) bool { return true }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the object printed as the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from one untraced phase.
func endToEnd(res *phaseResult, setupSeconds []float64) map[string]float64 {
	all := pick(res.Samples, every)
	group := func(g string) float64 {
		return percentile(pick(res.Samples, func(s sample) bool { return s.Group == g }), 0.5)
	}
	style := func(st string) float64 {
		return percentile(pick(res.Samples, func(s sample) bool { return isRead(s) && s.Style == st }), 0.5)
	}
	m := map[string]float64{
		"setup_s":                  median(setupSeconds),
		"throughput_stmt_s":        float64(len(res.Samples)) / (float64(res.ElapsedNS) / 1e9),
		"stmt_p50_ms":              percentile(all, 0.5),
		"stmt_p90_ms":              percentile(all, 0.9),
		"join_p50_ms":              group("join"),
		"anti_p50_ms":              group("anti"),
		"agg_p50_ms":               group("agg"),
		"plain_p50_ms":             style("plain"),
		"prepared_p50_ms":          style("prepared"),
		"write_p50_ms":             group("write"),
		"peak_rss_mb":              float64(res.PeakRSSKB) / 1024,
		"disk_bytes_per_user_byte": 0,
	}
	if res.UserBytes > 0 {
		m["disk_bytes_per_user_byte"] = float64(res.DiskBytes) / float64(res.UserBytes)
	}
	return m
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	if err := readJSON(path, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report selects the metrics the spec lists, in its units. A metric the
// spec lists but the run did not produce is an error: the two must agree.
func report(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, ms := range specs {
		v, ok := values[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", ms.Name)
		}
		out[ms.Name] = metric{Value: v, Unit: ms.Unit}
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
