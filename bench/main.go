// Command bench is the repository's one fixed benchmark: four workloads under
// both simulation engines, measured on two clocks (simulated makespan, host
// time and memory), with a separate traced run that measures every layer from
// outside. BENCHMARK.json at the repository root describes it; README.md in
// this directory explains the workloads and metrics.
//
//	bash bench/run.sh                                   every workload, end to end and traced
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1   one run, as the driver makes it
//	bash bench/run.sh -aa                               two sets of runs of this binary, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
)

// environment is recorded with every result.
type environment struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	ParWorkers  int     `json:"parallel_workers"` // at 64 nodes and above
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	SetupRounds int     `json:"setup_rounds"`
	MinPairs    int     `json:"min_pairs"`
	LayerReps   int     `json:"layer_reps"`
	Tiny        bool    `json:"tiny,omitempty"`
}

// record is everything one invocation measured.
type record struct {
	Env      environment `json:"env"`
	EndToEnd []e2eResult `json:"end_to_end,omitempty"`
	Layers   []result    `json:"per_layer,omitempty"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func main() {
	name := flag.String("workload", "", "run only this workload and print the driver's result line last")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from (7 is held out for later claims)")
	seconds := flag.Float64("seconds", 18, "how long each workload's timed section measures")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 makes the traced per-layer run")
	aa := flag.Bool("aa", false, "measure twice as long, split the runs into two interleaved sets and compare them against the bounds")
	small := flag.Bool("tiny", false, "smoke-test sizes: 8 nodes, one repetition")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans to this file as Chrome trace_event JSON")
	out := flag.String("out", "", "write the full record (environment, samples, metrics) to this file as JSON")
	flag.Parse()

	// Default parallel workers are GOMAXPROCS; above the CPU count they
	// would time the host's scheduler, not the engine.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS=%d is above the %d CPUs: parallel workers would be oversubscribed",
			runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	sz := full
	if *small {
		sz, *seconds = tiny, 0
	}
	if *aa { // one measurement of twice the length, split into two sets
		sz.setupRounds, sz.minPairs, *seconds = 2*sz.setupRounds, 2*sz.minPairs, 2**seconds
	}
	run := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = workloads[i : i+1]
	}
	rec := record{Env: environment{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), ParWorkers: min(runtime.GOMAXPROCS(0), sz.smallNodes),
		Seed: *seed, Seconds: *seconds, SetupRounds: sz.setupRounds, MinPairs: sz.minPairs, LayerReps: sz.layerReps, Tiny: *small}}
	fmt.Printf("env %+v\n", rec.Env)

	ok := true
	sp := newSpanLog()
	for _, w := range run {
		if *name == "" || *aa || *trace == 0 {
			r := endToEndRun(w, *seed, *seconds, sz)
			rec.EndToEnd = append(rec.EndToEnd, r)
			printResult("end to end", r.result, r.Samples)
			ok = ok && r.Failed == 0
			if *aa {
				ok = compareAA(r.halves()) && ok
			}
		}
		if !*aa && (*name == "" || *trace == 1) {
			r := tracedRun(w, *seed, sz, sp)
			rec.Layers = append(rec.Layers, r)
			printResult("traced run", r, nil)
			ok = ok && r.Failed == 0
		}
	}

	if *traceOut != "" {
		if err := sp.writeChrome(*traceOut); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *name != "" && !*aa { // one workload, one kind of run: the driver's form
		if *trace == 1 {
			printDriverLine(rec.Layers[0], ok)
		} else {
			printDriverLine(rec.EndToEnd[0].result, ok)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints one workload's metrics by name and unit, with the
// sample counts behind the medians where there are samples.
func printResult(kind string, r result, samples map[string]summary) {
	fmt.Printf("\n%s  %s: %d runs, %d failed\n", r.Workload, kind, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED", f)
	}
	for _, m := range r.Metrics {
		line := "  " + m.String()
		if s, ok := samples[m.Name]; ok {
			line += fmt.Sprintf("   median of %d, min %.6g, max %.6g", s.N, s.Min, s.Max)
		}
		fmt.Println(line)
	}
}

// compareAA prints two sets of runs of one workload side by side and reports
// whether every timing and memory metric agrees within its bound. The
// simulated makespan and the counts need no comparing: a run whose statistics
// are not bit-equal to the first run's has failed.
func compareAA(a, b e2eResult) bool {
	ok := true
	fmt.Printf("\n%s  A/A\n  %-14s %14s %14s %9s %7s\n", a.Workload, "metric", "A", "B", "diff", "bound")
	for _, d := range endToEnd {
		va, vb := a.Metrics.get(d.Name), b.Metrics.get(d.Name)
		diff, verdict := math.Abs(vb-va)/va, ""
		if !(diff <= d.Bound) {
			verdict, ok = "  EXCEEDS", false
		}
		fmt.Printf("  %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
	}
	return ok
}

// printDriverLine prints the one-line result the driver reads.
func printDriverLine(r result, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err) // a value that is not finite
	}
	fmt.Println(string(data))
}
