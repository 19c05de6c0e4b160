package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tables must match.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables the
// program emits from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, program has %+v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
}

// checkEmitted asserts that ms holds every metric of defs exactly once, under
// a well-formed name, with a finite value and the table's unit.
func checkEmitted(t *testing.T, workload string, ms metrics, defs []metricDef) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]int{}
	for _, m := range ms {
		seen[m.Name]++
		if !name.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is malformed", workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", workload, m.Name, m.Value)
		}
	}
	for _, d := range defs {
		if seen[d.Name] != 1 {
			t.Errorf("%s: %s emitted %d times, want once", workload, d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for extra := range seen {
		t.Errorf("%s: %s emitted but not in the table", workload, extra)
	}
}

// TestSmoke runs every workload at tiny sizes, end to end twice and traced
// once: every metric is emitted once and finite, no run fails its check, and
// the simulated clock and every count agree between the two runs, between
// the engines (measure compares each run with the first) and with the traced
// run.
func TestSmoke(t *testing.T) {
	sp := newSpanLog()
	for _, w := range workloads {
		a, b := endToEndRun(w, 42, 0, tiny), endToEndRun(w, 42, 0, tiny)
		l := tracedRun(w, 42, tiny, sp)
		if a.Failed+b.Failed+l.Failed > 0 {
			t.Errorf("%s: failed runs: %v %v %v", w.name, a.Failures, b.Failures, l.Failures)
		}
		checkEmitted(t, w.name, a.Metrics, endToEnd)
		checkEmitted(t, w.name, l.Metrics, perLayer)
		if x, y := a.Metrics.get("sim_ms"), b.Metrics.get("sim_ms"); x != y {
			t.Errorf("%s: sim_ms %v then %v", w.name, x, y)
		}
		if !slices.Equal(a.Counts, b.Counts) {
			t.Errorf("%s: counts differ between two runs:\n%v\n%v", w.name, a.Counts, b.Counts)
		}
		if got := l.Metrics[:len(a.Counts)]; !slices.Equal(got, a.Counts) {
			t.Errorf("%s: traced run's counts differ from the untraced run's:\n%v\n%v", w.name, got, a.Counts)
		}
	}
	if len(sp.spans) == 0 || len(sp.open) != 0 {
		t.Errorf("span log: %d spans, %d left open", len(sp.spans), len(sp.open))
	}
}

// TestDifferentSeedsDifferentInputs guards against a workload ignoring -seed.
func TestDifferentSeedsDifferentInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := endToEndRun(w, 1, 0, tiny), endToEndRun(w, 2, 0, tiny)
		if slices.Equal(a.Counts, b.Counts) {
			t.Errorf("%s: seeds 1 and 2 gave identical counts", w.name)
		}
	}
}

// TestHalves checks how -aa splits one measurement: set-ups alternate and
// timed pairs go two by two, so each set gets both engine orders.
func TestHalves(t *testing.T) {
	r := e2eResult{SimMS: 5, Samples: map[string]summary{
		"setup_s":    samples{1, 2, 3, 4}.summary(),
		"host_s_seq": samples{10, 11, 20, 21, 12, 13, 22, 23}.summary(),
	}}
	a, b := r.halves()
	if got, want := a.Samples["setup_s"].Values, []float64{1, 3}; !slices.Equal(got, want) {
		t.Errorf("set A set-ups = %v, want %v", got, want)
	}
	if got, want := a.Samples["host_s_seq"].Values, []float64{10, 11, 12, 13}; !slices.Equal(got, want) {
		t.Errorf("set A host_s_seq = %v, want %v", got, want)
	}
	if got, want := b.Samples["host_s_seq"].Values, []float64{20, 21, 22, 23}; !slices.Equal(got, want) {
		t.Errorf("set B host_s_seq = %v, want %v", got, want)
	}
	if a.Metrics.get("host_s_seq") != 11.5 || b.Metrics.get("sim_ms") != 5 {
		t.Errorf("set metrics: A %v, B %v", a.Metrics, b.Metrics)
	}
}
