package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog pins that BENCHMARK.json at the repository
// root is exactly what --write-json derives from the catalog.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchFileJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash perfbench/run.sh --write-json BENCHMARK.json`")
	}
}

// TestBenchFileLimits checks the catalog against BENCHMARK.json's format
// limits: counts, name and unit alphabets, bounds and file size.
func TestBenchFileLimits(t *testing.T) {
	c := buildBenchFile()
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRe := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", c.RunSeconds)
	}
	if len(c.Command) > 32 || len(c.Paths) < 1 || len(c.Paths) > 16 {
		t.Errorf("command/paths sizes out of range")
	}
	for _, p := range append(append([]string{}, c.Paths...), c.Command[1:]...) {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		if !nameRe.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]fileMetric{}, c.EndToEnd...), c.PerLayer...) {
		if !nameRe.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range c.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range c.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %.2f", o.Name, *o.Bound)
				}
			}
		}
	}
	for _, m := range c.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) missing from end_to_end")
	}
	data, err := benchFileJSON()
	if err != nil || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes (err %v), limit 64 KiB", len(data), err)
	}
}

// TestTail pins the tail-percentile rule: the highest candidate with at
// least ten samples beyond it.
func TestTail(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		value float64
		p     float64
	}{
		{19, 19, 100}, {20, 10, 50}, {100, 90, 90}, {199, 180, 90}, {200, 190, 95}, {10000, 9500, 95},
	} {
		v, p := tail(mk(c.n))
		if v != c.value || p != c.p {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.p)
		}
	}
}

// TestResultLineMetrics pins that a listed workload's result line carries
// exactly the metrics BENCHMARK.json lists: end-to-end ones untraced,
// per-layer ones traced.
func TestResultLineMetrics(t *testing.T) {
	c := buildBenchFile()
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			b := &bench{workload: w.Name, trace: trace, correct: true, attempted: 1,
				fails: map[string]int{}, metrics: map[string]float64{}, samples: map[string]int{}}
			var out bytes.Buffer
			b.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var result struct {
				Metrics map[string]struct {
					Unit string `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(result.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := result.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
