package main

import (
	"fmt"
	"runtime"
	"time"

	"dpa"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

// engines are the two engines every workload runs under; Parallel() resolves
// its workers to min(GOMAXPROCS, nodes).
var engines = []struct {
	name string
	eng  dpa.Engine
}{{"seq", dpa.Sequential()}, {"par", dpa.Parallel()}}

// timedRun is one full run measured from outside.
type timedRun struct {
	seconds float64
	allocMB float64 // MemStats.TotalAlloc delta
	mallocs float64 // MemStats.Mallocs delta
	run     stats.Run
	err     error // why the run failed its check, nil when it passed
}

// measure runs a once and checks it: no run error, the host reference
// matched, and, when base is given, statistics bit-equal to base (which is
// how runs of the other engine and earlier repetitions are compared).
func measure(a app, mcfg machine.Config, spec dpa.Spec, sp *spanLog, base *stats.Run) timedRun {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := sp.begin("run." + mcfg.Engine.String())
	t0 := time.Now()
	run := a.run(mcfg, spec, sp)
	d := time.Since(t0)
	end()
	runtime.ReadMemStats(&m1)
	r := timedRun{seconds: d.Seconds(), allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs: float64(m1.Mallocs - m0.Mallocs), run: run}

	defer sp.begin("app.check")()
	switch {
	case run.Err != nil:
		r.err = fmt.Errorf("run degraded: %w", run.Err)
	case base != nil && !base.Equal(run):
		r.err = fmt.Errorf("statistics differ from the first run's: %s", base.Diff(run))
	default:
		r.err = a.check()
	}
	return r
}

// result is what both kinds of run report about one workload.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

// fail counts a run that did not pass its check.
func (r *result) fail(what string, err error) {
	r.Failed++
	r.Failures = append(r.Failures, what+": "+err.Error())
}

// e2eResult is one workload's end-to-end measurement.
type e2eResult struct {
	result
	Samples map[string]summary `json:"samples"`
	SimMS   float64            `json:"sim_ms"` // of the first run; every other run is held equal to it
	Counts  metrics            `json:"counts"` // source-1 counts of the first run
}

// endToEndRun sets the workload up sz.setupRounds times — inputs from the
// seed, host reference, one discarded run per engine — then times
// (sequential, parallel) pairs, alternating which engine goes first, for at
// least sz.minPairs pairs and until seconds have passed.
func endToEndRun(w workload, seed int64, seconds float64, sz sizes) e2eResult {
	res := e2eResult{result: result{Workload: w.name}}
	nodes, spec := w.nodes(sz), w.spec()

	var a app
	var base *stats.Run
	var setup samples
	for round := 0; round < sz.setupRounds; round++ {
		t0 := time.Now()
		a = w.prepare(seed, nodes, sz)
		for _, e := range engines {
			r := measure(a, machineFor(nodes, e.eng), spec, nil, base)
			res.Attempted++
			if r.err != nil {
				res.fail("warm-up "+e.name, r.err)
			} else if base == nil {
				base = &r.run
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	type engineSamples struct{ seconds, allocMB, mallocs samples }
	timed := map[string]*engineSamples{"seq": {}, "par": {}}
	start := time.Now()
	for pair := 0; pair < sz.minPairs || time.Since(start).Seconds() < seconds; pair++ {
		for i := range engines {
			e := engines[(i+pair)%2]
			r := measure(a, machineFor(nodes, e.eng), spec, nil, base)
			res.Attempted++
			if r.err != nil {
				res.fail(e.name, r.err) // failed runs stay out of the medians
				continue
			}
			t := timed[e.name]
			t.seconds, t.allocMB, t.mallocs = append(t.seconds, r.seconds), append(t.allocMB, r.allocMB), append(t.mallocs, r.mallocs)
		}
	}

	res.Samples = map[string]summary{
		"setup_s":      setup.summary(),
		"host_s_seq":   timed["seq"].seconds.summary(),
		"host_s_par":   timed["par"].seconds.summary(),
		"alloc_mb_seq": timed["seq"].allocMB.summary(),
		"mallocs_seq":  timed["seq"].mallocs.summary(),
	}
	if base != nil {
		res.SimMS = simMS(*base)
		res.Counts = counts(*base, w.phases(sz), nodes)
	}
	res.summarize()
	return res
}

// summarize fills the metrics from the samples: medians, and the simulated
// makespan of the first run, which every later run was held equal to.
func (r *e2eResult) summarize() {
	r.Metrics = nil
	for _, d := range endToEnd {
		if d.Name == "sim_ms" && r.SimMS > 0 {
			r.Metrics.add(d.Name, r.SimMS)
		} else if s := r.Samples[d.Name]; s.N > 0 {
			r.Metrics.add(d.Name, s.Median)
		}
	}
}

// halves splits one measurement into two interleaved sets of runs: set-ups
// alternate, and timed pairs go two to one set, two to the other, so that both
// sets hold as many pairs that began with each engine. Sets made one after the
// other would differ by how the machine's speed drifted in between, which on a
// shared box is more than any bound; interleaved sets see the same drift.
func (r e2eResult) halves() (a, b e2eResult) {
	a, b = r, r
	a.Samples, b.Samples = map[string]summary{}, map[string]summary{}
	for name, s := range r.Samples {
		block := 2
		if name == "setup_s" {
			block = 1
		}
		var va, vb samples
		for i, v := range s.Values {
			if i/block%2 == 0 {
				va = append(va, v)
			} else {
				vb = append(vb, v)
			}
		}
		a.Samples[name], b.Samples[name] = va.summary(), vb.summary()
	}
	a.summarize()
	b.summarize()
	return a, b
}

// simMS is the simulated makespan in milliseconds of the 150 MHz machine.
func simMS(r stats.Run) float64 {
	return dpa.DefaultT3D(1).Seconds(r.Makespan) * 1e3
}
