// Command dpabench runs a single application phase under a chosen runtime
// and machine size and prints the execution-time breakdown and runtime
// counters — the quick way to explore one configuration.
//
// Usage:
//
//	dpabench -app bh|fmm|em3d|bfs|pagerank|cc -nodes 16 -runtime dpa|caching|blocking \
//	         -engine sequential|parallel [-workers 8] \
//	         -bodies 16384 -strip 50 -agg 16 [-nopipe] [-steps 4] [-terms 29] \
//	         [-shape] [-strips 10,50,300] \
//	         [-vertices 16384] [-degree 8] [-graph rmat|uniform]
//
// DPA runs the paper's static strip (-strip) by default; -shape selects
// planned mode instead, where a cost model sizes every strip and multi-phase
// apps plan repeated phases from the previous phase's measurements. -strips
// runs a static sweep over the listed sizes plus one planned row.
//
// The graph-analytics apps (bfs, pagerank, cc) run over a partitioned graph
// generated deterministically from -seed: -vertices and -degree size it,
// -graph picks the edge distribution (rmat or uniform), and -iters sets the
// PageRank iteration count (BFS and CC run to completion).
//
// The parallel engine's one knob is -workers (host workers, 0 = one per core
// capped at the node count); the sequential engine ignores it. Its windows
// are the machine's minimum message delay wide and idle workers always
// steal. None of this changes results — simulated clocks, counters, traces,
// and metrics stay bit-identical to sequential — so the host scheduler
// summary (workers/windows/steals/parks) goes to stderr, keeping stdout
// diffable across engines.
//
// Deterministic fault injection is enabled with -faults (or any nonzero
// fault rate): -drop-rate and -dup-rate lose and duplicate messages (the
// reliability protocol recovers them), -jitter-rate/-max-jitter delay
// deliveries, -stall-rate/-stall-cycles freeze nodes transiently, and
// -crash-rate/-crash-at kill a deterministic subset of nodes permanently
// mid-phase (survivors degrade around them; the run's error wraps the crash).
// The schedule is a pure function of -fault-seed and each sender's program
// order, so the same flags reproduce the same faulty run on both engines.
//
// Checkpoint/restore: -checkpoint-at T captures a versioned snapshot of the
// complete run state at cumulative virtual time T (written to a file with
// -checkpoint-out); -restore FILE re-runs the same configuration and proves
// the stored state is reproduced bit for bit at the boundary. Both print an
// engine-independent summary line on stdout.
//
// Observability: -trace prints a per-node activity Gantt chart (bin width
// set by -tracebins); -traceout FILE exports a Chrome trace_event JSON file
// loadable in Perfetto or chrome://tracing; -metrics FILE writes the run's
// counters as Prometheus text (or JSON when FILE ends in .json). Exported
// traces and metrics are bit-identical across engines and repeats.
// -cpuprofile/-memprofile write host pprof profiles of the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

func main() {
	app := flag.String("app", "bh", "application: bh, fmm, em3d, bfs, pagerank, or cc")
	nodes := flag.Int("nodes", 16, "simulated node count")
	rtName := flag.String("runtime", "dpa", "runtime: dpa, caching, or blocking")
	engine := flag.String("engine", "sequential", "simulation engine: sequential or parallel")
	workers := flag.Int("workers", 0, "parallel engine: host worker count (0 = one per core, capped at nodes)")
	bodies := flag.Int("bodies", 16384, "body count")
	steps := flag.Int("steps", 1, "Barnes-Hut steps")
	terms := flag.Int("terms", 29, "FMM expansion terms")
	strip := flag.Int("strip", 50, "DPA strip size (0 = one strip)")
	shape := flag.Bool("shape", false, "select DPA's planned mode (cost-model strip sizing, reuse-region pinning, cross-phase priors, affinity-shaped tiles)")
	vertices := flag.Int("vertices", 16384, "graph apps: vertex count")
	degree := flag.Int("degree", 8, "graph apps: average degree")
	graphKind := flag.String("graph", "rmat", "graph apps: edge distribution, rmat or uniform")
	source := flag.Int("source", 0, "bfs: source vertex")
	strips := flag.String("strips", "", "comma-separated strip sizes: run a static sweep plus a planned row and print a comparison table")
	agg := flag.Int("agg", 16, "DPA aggregation limit (1 disables, 0 unlimited)")
	noPipe := flag.Bool("nopipe", false, "disable DPA message pipelining")
	seed := flag.Int64("seed", 42, "workload seed")
	iters := flag.Int("iters", 4, "EM3D iterations")
	faults := flag.Bool("faults", false, "enable fault injection and the reliability layer")
	dropRate := flag.Float64("drop-rate", 0, "message drop probability (implies -faults)")
	dupRate := flag.Float64("dup-rate", 0, "message duplication probability (implies -faults)")
	jitterRate := flag.Float64("jitter-rate", 0, "message delay-jitter probability (implies -faults)")
	maxJitter := flag.Int64("max-jitter", 0, "maximum extra delivery delay in cycles")
	stallRate := flag.Float64("stall-rate", 0, "transient node-stall probability per poll/wait (implies -faults)")
	stallCycles := flag.Int64("stall-cycles", 0, "duration of one injected stall in cycles")
	crashRate := flag.Float64("crash-rate", 0, "permanent node-crash probability, drawn once per node (implies -faults; requires -crash-at)")
	crashAt := flag.Int64("crash-at", 0, "per-phase virtual time at or after which doomed nodes crash")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-schedule seed")
	checkpointAt := flag.Int64("checkpoint-at", 0, "capture a deterministic snapshot at this cumulative virtual time (cycles)")
	checkpointOut := flag.String("checkpoint-out", "", "write the captured snapshot to this file (requires -checkpoint-at)")
	restorePath := flag.String("restore", "", "verify a snapshot file: re-run deterministically and compare state at its boundary")
	trace := flag.Bool("trace", false, "print a per-node activity Gantt chart")
	traceBins := flag.Int64("tracebins", 50_000, "timeline bin width in cycles for -trace")
	traceOut := flag.String("traceout", "", "write a Chrome trace_event JSON trace to this file")
	metricsOut := flag.String("metrics", "", "write run metrics to this file (.json = JSON, otherwise Prometheus text)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a host heap profile to this file on exit")
	flag.Parse()

	if err := checkSizes(*app, sizes{bodies: *bodies, vertices: *vertices, degree: *degree,
		terms: *terms, steps: *steps, iters: *iters}); err != nil {
		fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
		os.Exit(1)
	}
	if *traceBins <= 0 {
		fmt.Fprintf(os.Stderr, "dpabench: -tracebins must be positive, got %d\n", *traceBins)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memProfile)

	var spec driver.Spec
	switch *rtName {
	case "dpa":
		opts := []driver.SpecOption{driver.WithAggLimit(*agg), driver.WithPipeline(!*noPipe)}
		if *shape {
			opts = append(opts, driver.WithShape())
		}
		spec = driver.DPASpec(*strip, opts...)
	case "caching":
		spec = driver.CachingSpec()
	case "blocking":
		spec = driver.BlockingSpec()
	default:
		fmt.Fprintf(os.Stderr, "dpabench: unknown runtime %q\n", *rtName)
		os.Exit(1)
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
		os.Exit(1)
	}

	mcfg := machine.DefaultT3D(*nodes)
	switch *engine {
	case "sequential":
		mcfg.Engine = sim.Sequential
	case "parallel":
		mcfg.Engine = sim.Parallel
	default:
		fmt.Fprintf(os.Stderr, "dpabench: unknown engine %q\n", *engine)
		os.Exit(1)
	}
	mcfg.EngineTuning = sim.Tuning{Workers: *workers}
	if err := mcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
		os.Exit(1)
	}
	if *trace {
		mcfg.TraceBins = sim.Time(*traceBins) // default ~0.3 ms bins at 150 MHz; Gantt re-bins to fit
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*nodes, 0)
		mcfg.Obs = tracer
	}
	if *crashRate > 0 && *crashAt <= 0 {
		fmt.Fprintf(os.Stderr, "dpabench: -crash-rate requires -crash-at > 0\n")
		os.Exit(1)
	}
	if *faults || *dropRate > 0 || *dupRate > 0 || *jitterRate > 0 || *stallRate > 0 || *crashRate > 0 {
		mcfg.Faults = machine.FaultConfig{
			FaultParams: sim.FaultParams{
				Seed:        *faultSeed,
				DropRate:    *dropRate,
				DupRate:     *dupRate,
				JitterRate:  *jitterRate,
				MaxJitter:   sim.Time(*maxJitter),
				StallRate:   *stallRate,
				StallCycles: sim.Time(*stallCycles),
				CrashRate:   *crashRate,
				CrashAt:     sim.Time(*crashAt),
			},
			Reliable: true,
		}
		if err := mcfg.Faults.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
			os.Exit(1)
		}
	}
	// Checkpoint/restore: capture arms a snapshot at a cumulative virtual
	// time; restore re-executes the same configuration deterministically and
	// verifies the state at the stored boundary bit for bit.
	var ckSpec *machine.CheckpointSpec
	var ckSnap *sim.Snapshot
	var ckErr error
	ckDeliver := func(s *sim.Snapshot, err error) { ckSnap, ckErr = s, err }
	switch {
	case *restorePath != "" && *checkpointAt > 0:
		fmt.Fprintf(os.Stderr, "dpabench: -restore and -checkpoint-at are mutually exclusive\n")
		os.Exit(1)
	case *checkpointOut != "" && *checkpointAt <= 0:
		fmt.Fprintf(os.Stderr, "dpabench: -checkpoint-out requires -checkpoint-at\n")
		os.Exit(1)
	case *restorePath != "":
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
			os.Exit(1)
		}
		snap, err := sim.Restore(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
			os.Exit(1)
		}
		ckSpec = &machine.CheckpointSpec{Verify: snap, Deliver: ckDeliver}
	case *checkpointAt > 0:
		ckSpec = &machine.CheckpointSpec{At: sim.Time(*checkpointAt), Deliver: ckDeliver}
	}
	if ckSpec != nil {
		mcfg.Checkpoint = ckSpec
	}
	var runWith func(machine.Config, driver.Spec) stats.Run
	switch *app {
	case "bh":
		w := nbody.Plummer(*bodies, *seed)
		runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
			return bh.RunSteps(cfg, sp, w, *steps, bh.DefaultParams())
		}
	case "fmm":
		w := nbody.Uniform2D(*bodies, *seed)
		prm := fmm.DefaultParams(*bodies)
		prm.Terms = *terms
		runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
			run, _ := fmm.RunStep(cfg, sp, w, prm)
			return run
		}
	case "em3d":
		prm := em3d.DefaultParams(*bodies)
		runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
			run, _ := em3d.RunIters(cfg, sp, prm, *iters)
			return run
		}
	case "bfs", "pagerank", "cc":
		gprm := graph.DefaultParams(*vertices)
		gprm.Degree = *degree
		gprm.Kind = *graphKind
		gprm.Seed = *seed
		if *graphKind != graph.KindRMAT && *graphKind != graph.KindUniform {
			fmt.Fprintf(os.Stderr, "dpabench: unknown graph kind %q\n", *graphKind)
			os.Exit(1)
		}
		if *source < 0 || *source >= *vertices {
			fmt.Fprintf(os.Stderr, "dpabench: -source %d outside [0,%d)\n", *source, *vertices)
			os.Exit(1)
		}
		switch *app {
		case "bfs":
			runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
				run, _ := graph.RunBFS(cfg, sp, gprm, *source)
				return run
			}
		case "pagerank":
			runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
				run, _ := graph.RunPageRank(cfg, sp, gprm, *iters)
				return run
			}
		case "cc":
			runWith = func(cfg machine.Config, sp driver.Spec) stats.Run {
				run, _ := graph.RunCC(cfg, sp, gprm)
				return run
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "dpabench: unknown app %q\n", *app)
		os.Exit(1)
	}
	if ckSpec != nil && *strips != "" {
		fmt.Fprintf(os.Stderr, "dpabench: checkpoint/restore is a single-run mode (no -strips)\n")
		os.Exit(1)
	}
	if *strips != "" {
		stripSweep(mcfg, runWith, *strips, *agg, !*noPipe, *app, *nodes)
		return
	}
	run := runWith(mcfg, spec)

	fmt.Printf("app=%s nodes=%d runtime=%s engine=%s\n", *app, *nodes, spec, mcfg.Engine)
	fmt.Print(run.Table(mcfg.ClockHz))
	if run.Host != nil {
		// Host-scheduler counters depend on host timing, so they go to
		// stderr: stdout must stay bit-identical across engines.
		fmt.Fprintf(os.Stderr, "host sched: %s\n", run.Host)
	}
	if ckSpec != nil {
		if !ckSpec.Done() {
			fmt.Fprintf(os.Stderr, "dpabench: checkpoint boundary lies beyond the run's end\n")
			os.Exit(1)
		}
		if ckErr != nil {
			fmt.Fprintf(os.Stderr, "dpabench: %v\n", ckErr)
			os.Exit(1)
		}
		data := ckSnap.Encode()
		// The snapshot is bit-identical across engines, so its summary is
		// part of the diffable stdout.
		fmt.Printf("checkpoint: boundary=%d phase=%d sections=%d bytes=%d\n",
			ckSnap.Meta.Boundary, ckSnap.Meta.Phase, len(ckSnap.Sections), len(data))
		if *restorePath != "" {
			fmt.Printf("restore: verified bit-identical at the boundary\n")
		}
		if *checkpointOut != "" {
			if err := os.WriteFile(*checkpointOut, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *trace && run.Timeline != nil {
		fmt.Printf("\nactivity timeline (#=local +=comm .=idle), one row per node:\n")
		for i, row := range run.Timeline.Gantt(100) {
			fmt.Printf("%3d |%s|\n", i, row)
		}
	}
	if tracer != nil {
		writeOut(*traceOut, tracer.WriteChromeTrace)
	}
	if *metricsOut != "" {
		reg := run.Metrics()
		write := reg.WritePrometheus
		if strings.HasSuffix(*metricsOut, ".json") {
			write = reg.WriteJSON
		}
		writeOut(*metricsOut, write)
	}
}

// sizes holds the workload-size flags.
type sizes struct{ bodies, vertices, degree, terms, steps, iters int }

// checkSizes rejects a non-positive value of any size flag the chosen app
// reads; the generators allocate and index by these without checking. An
// unknown app reads none and is reported where the app is selected.
func checkSizes(app string, sz sizes) error {
	type sizeFlag struct {
		name string
		v    int
	}
	var read []sizeFlag
	switch app {
	case "bh":
		read = []sizeFlag{{"bodies", sz.bodies}, {"steps", sz.steps}}
	case "fmm":
		read = []sizeFlag{{"bodies", sz.bodies}, {"terms", sz.terms}}
	case "em3d":
		read = []sizeFlag{{"bodies", sz.bodies}, {"iters", sz.iters}}
	case "bfs", "cc":
		read = []sizeFlag{{"vertices", sz.vertices}, {"degree", sz.degree}}
	case "pagerank":
		read = []sizeFlag{{"vertices", sz.vertices}, {"degree", sz.degree}, {"iters", sz.iters}}
	}
	for _, f := range read {
		if f.v <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// writeOut creates path and fills it with write, exiting on any error.
func writeOut(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpabench: %v\n", err)
		os.Exit(1)
	}
}

// writeMemProfile writes a heap profile on exit when -memprofile is set.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	runtime.GC() // settle allocations so the profile reflects live data
	writeOut(path, pprof.WriteHeapProfile)
}

// stripSweep runs the app once per static strip size plus once in planned
// mode and prints one comparison row each — the quick command-line version of
// the harness's X7 experiment.
func stripSweep(mcfg machine.Config, runWith func(machine.Config, driver.Spec) stats.Run,
	strips string, agg int, pipeline bool, app string, nodes int) {

	fmt.Printf("app=%s nodes=%d engine=%s strip sweep\n", app, nodes, mcfg.Engine)
	fmt.Printf("%-12s %10s %10s %10s %10s %8s\n",
		"runtime", "time", "fetches", "refetches", "reqmsgs", "peakKB")
	row := func(sp driver.Spec) stats.Run {
		r := runWith(mcfg, sp)
		fmt.Printf("%-12s %9.4fs %10d %10d %10d %8.1f\n",
			sp, mcfg.Seconds(r.Makespan), r.RT.Fetches, r.RT.Refetches,
			r.RT.ReqMsgs, float64(r.RT.PeakArrivedBytes)/1024)
		return r
	}
	opts := []driver.SpecOption{driver.WithAggLimit(agg), driver.WithPipeline(pipeline)}
	best := sim.Time(0)
	for _, f := range strings.Split(strips, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || s < 0 {
			fmt.Fprintf(os.Stderr, "dpabench: bad strip size %q\n", f)
			os.Exit(1)
		}
		r := row(driver.DPASpec(s, opts...))
		if best == 0 || r.Makespan < best {
			best = r.Makespan
		}
	}
	pr := row(driver.DPASpec(50, append(opts, driver.WithShape())...))
	fmt.Printf("planned   %d strips planned, %d mispredicted, final strip %d, %d prior hits, %d shaped runs\n",
		pr.RT.PlanStrips, pr.RT.PlanMispredicts, pr.RT.FinalStrip, pr.RT.PlanPriorHits, pr.RT.ShapedRuns)
	if best > 0 {
		fmt.Printf("planned vs best static: %+.2f%%\n", (float64(pr.Makespan)/float64(best)-1)*100)
	}
}
