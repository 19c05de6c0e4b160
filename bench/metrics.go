package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric of the benchmark. The two tables below are the
// source BENCHMARK.json is written from; the smoke test fails when the file
// and the tables disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // relative worsening that counts as a regression; end-to-end only
}

// endToEnd are the metrics a user of the simulator sees. Each bound is three
// times the widest spread seen between ten runs, each with another seed as the
// driver runs them: sim_ms, alloc_mb_seq and mallocs_seq repeat (almost)
// exactly at a fixed seed but differ between inputs, by up to 4.5 %, 3.6 % and
// 1.8 % on bh64_static; the timings of one invocation's median spread by up to
// 23 % between invocations on a shared 2-core box, which no bound can triple.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_s_seq", "s", "lower", 0.25},
	{"host_s_par", "s", "lower", 0.25},
	{"sim_ms", "ms", "lower", 0.15},
	{"alloc_mb_seq", "MB/run", "lower", 0.12},
	{"mallocs_seq", "count/run", "lower", 0.06},
}

// perLayer are the traced run's metrics, prefixed by the module they measure.
var perLayer = []metricDef{
	// Source 1: counts read from the run's stats.Run. Exact at a fixed seed
	// and the same under both engines.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.comm_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.local_frac", Unit: "ratio", Better: "higher"},
	{Name: "machine.msgs", Unit: "count", Better: "lower"},
	{Name: "machine.mbytes", Unit: "MB", Better: "lower"},
	{Name: "core.threads", Unit: "count", Better: "lower"},
	{Name: "core.local_hits", Unit: "count", Better: "higher"},
	{Name: "core.reuses", Unit: "count", Better: "higher"},
	{Name: "core.fetches", Unit: "count", Better: "lower"},
	{Name: "core.refetches", Unit: "count", Better: "lower"},
	{Name: "core.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.req_msgs", Unit: "count", Better: "lower"},
	{Name: "core.objs_per_msg", Unit: "count", Better: "higher"},
	{Name: "core.peak_outstanding", Unit: "count", Better: "lower"},
	{Name: "core.peak_copy_kb", Unit: "KB", Better: "lower"},
	{Name: "core.plan_strips", Unit: "count", Better: "lower"},
	{Name: "core.plan_mispredicts", Unit: "count", Better: "lower"},
	{Name: "core.prior_hits", Unit: "count", Better: "higher"},
	{Name: "core.shaped_runs", Unit: "count", Better: "higher"},
	{Name: "core.prior_kb", Unit: "KB", Better: "lower"},
	{Name: "driver.phases", Unit: "count", Better: "lower"},
	{Name: "driver.runtimes_built", Unit: "count", Better: "lower"},
	// Host-side scheduling record of the parallel engine; steals are not
	// deterministic.
	{Name: "sim.par_workers", Unit: "count", Better: "higher"},
	{Name: "sim.par_windows", Unit: "count", Better: "lower"},
	{Name: "sim.par_steals", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event_seq", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_event_par", Unit: "ns", Better: "lower"},
	// Source 2: spans around the benchmark's own calls.
	{Name: "app.build_s", Unit: "s", Better: "lower"},
	{Name: "driver.run_phase_s", Unit: "s", Better: "lower"},
	{Name: "app.check_s", Unit: "s", Better: "lower"},
	{Name: "stats.table_us", Unit: "us", Better: "lower"},
	{Name: "obs.tracer_overhead", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_overhead", Unit: "ratio", Better: "lower"},
	// Source 3: synthetic calls into one layer's public functions at the
	// workload's node count and policy.
	{Name: "sim.probe_ns_per_msg_seq", Unit: "ns", Better: "lower"},
	{Name: "sim.probe_ns_per_msg_par", Unit: "ns", Better: "lower"},
	{Name: "sim.probe_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "machine.probe_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "fm.probe_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "fm.probe_barrier_us", Unit: "us", Better: "lower"},
	{Name: "driver.probe_empty_phase_us_per_node", Unit: "us", Better: "lower"},
	{Name: "driver.probe_empty_phase_kb_per_node", Unit: "KB", Better: "lower"},
	{Name: "driver.probe_empty_phase_growth", Unit: "ratio", Better: "lower"},
	{Name: "core.probe_local_ns_per_thread", Unit: "ns", Better: "lower"},
	{Name: "core.probe_reuse_ns_per_thread", Unit: "ns", Better: "lower"},
	{Name: "core.probe_fetch_ns_per_thread", Unit: "ns", Better: "lower"},
	{Name: "core.probe_fetch_allocs_per_thread", Unit: "count", Better: "lower"},
	{Name: "gptr.probe_alloc_get_ns", Unit: "ns", Better: "lower"},
	// Computed from sources 1 and 3: estimated shares of host_s_seq.
	{Name: "sim.share", Unit: "ratio", Better: "lower"},
	{Name: "machine.share", Unit: "ratio", Better: "lower"},
	{Name: "fm.share", Unit: "ratio", Better: "lower"},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "driver.share", Unit: "ratio", Better: "lower"},
	{Name: "app.share", Unit: "ratio", Better: "lower"},
}

// metric is one emitted value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects emitted values in order; add takes the unit from the
// tables above, so a name the tables lack is a bug and panics.
type metrics []metric

func (ms *metrics) add(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if i := slices.IndexFunc(defs, func(d metricDef) bool { return d.Name == name }); i >= 0 {
			*ms = append(*ms, metric{name, v, defs[i].Unit})
			return
		}
	}
	panic("bench: metric " + name + " is in neither table")
}

func (ms metrics) get(name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// samples are the timed values behind one reported median.
type samples []float64

// summary is what the record keeps of a sample list.
type summary struct {
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := slices.Clone(s)
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s samples) min() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return slices.Min(s)
}

func (s samples) summary() summary {
	if len(s) == 0 {
		return summary{}
	}
	return summary{len(s), slices.Min(s), s.median(), slices.Max(s), s}
}

func (m metric) String() string { return fmt.Sprintf("%-40s %16.6g %s", m.Name, m.Value, m.Unit) }
