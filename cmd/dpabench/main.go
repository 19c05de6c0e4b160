// Command dpabench runs a single application phase under a chosen runtime
// and machine size and prints the execution-time breakdown and runtime
// counters — the quick way to explore one configuration.
//
// Usage:
//
//	dpabench -app bh|fmm|em3d|bfs|pagerank|cc -nodes 16 -runtime dpa|caching|blocking \
//	         -engine sequential|parallel [-workers 8] \
//	         -bodies 16384 -strip 50 -agg 16 [-nopipe] [-steps 4] [-terms 29] \
//	         [-shape] [-strips 10,50,300] [-seed 42] [-iters 4] \
//	         [-vertices 16384] [-degree 8] [-graph rmat|uniform] [-source 0]
//
// The flags build one harness.Cell — the app, its inputs, the runtime Spec
// and the machine — which is validated as a whole and then executed; a bad
// value of any input the chosen app reads is a one-line error. -bodies sizes
// bh and fmm (bodies) and em3d (graph nodes per kind); -steps counts bh and
// fmm time steps, -iters em3d and pagerank iterations. -seed seeds the
// bodies and the graph apps' graph. em3d builds its default graph from seed
// 7 (the Olden shape) unless -seed is given explicitly.
//
// DPA runs the paper's static strip (-strip) by default; -shape selects
// planned mode instead, where a cost model sizes every strip and multi-phase
// apps plan repeated phases from the previous phase's measurements. -strips
// runs a static sweep over the listed sizes plus one planned row: the cell
// stays the same and only its Spec varies.
//
// The graph-analytics apps (bfs, pagerank, cc) run over a partitioned graph
// generated deterministically from -seed: -vertices and -degree size it,
// -graph picks the edge distribution (rmat or uniform), and -iters sets the
// PageRank iteration count (BFS and CC run to completion).
//
// The parallel engine's one knob is -workers (host workers, 0 = one per core
// capped at the node count); the sequential engine ignores it. One worker is
// the sequential engine, counters included. Two or more run windows the
// machine's minimum message delay wide, and idle workers always steal. None of this changes results — simulated clocks, counters, traces,
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/graph"
	"dpa/internal/harness"
	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

func main() {
	app := flag.String("app", "bh", "application: bh, fmm, em3d, bfs, pagerank, or cc")
	nodes := flag.Int("nodes", 16, "simulated node count")
	rtName := flag.String("runtime", "dpa", "runtime: dpa, caching, or blocking")
	engine := flag.String("engine", "sequential", "simulation engine: sequential (one worker) or parallel (-workers)")
	workers := flag.Int("workers", 0, "parallel engine: host worker count (0 = one per core, capped at nodes; 1 runs the sequential loop)")
	bodies := flag.Int("bodies", 16384, "body count (em3d: graph nodes per kind)")
	steps := flag.Int("steps", 1, "Barnes-Hut and FMM time steps")
	terms := flag.Int("terms", 29, "FMM expansion terms")
	strip := flag.Int("strip", 50, "DPA strip size (0 = one strip)")
	shape := flag.Bool("shape", false, "select DPA's planned mode (cost-model strip sizing, copies kept across strips, cross-phase priors, affinity-shaped tiles)")
	vertices := flag.Int("vertices", 16384, "graph apps: vertex count")
	degree := flag.Int("degree", 8, "graph apps: average degree")
	graphKind := flag.String("graph", "rmat", "graph apps: edge distribution, rmat or uniform")
	source := flag.Int("source", 0, "bfs: source vertex")
	strips := flag.String("strips", "", "comma-separated strip sizes: run a static sweep plus a planned row and print a comparison table")
	agg := flag.Int("agg", 16, "DPA aggregation limit (1 disables, 0 unlimited)")
	noPipe := flag.Bool("nopipe", false, "disable DPA message pipelining")
	seed := flag.Int64("seed", 42, "workload seed (em3d, unless set: 7, the seed of its default graph)")
	iters := flag.Int("iters", 4, "EM3D and PageRank iterations")
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

	// EM3D's default graph is seed 7's; only an explicit -seed replaces it.
	// A DPA tuning flag counts only when set: its default is DPA's.
	var seedSet bool
	var dpaTuning string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "strip", "agg", "nopipe":
			if dpaTuning == "" {
				dpaTuning = "-" + f.Name
			}
		}
	})
	stripSizes, err := flags{runtime: *rtName, shape: *shape, strips: *strips, dpaTuning: dpaTuning,
		checkpointAt: *checkpointAt, checkpointOut: *checkpointOut, restore: *restorePath,
		traceBins: *traceBins, crashRate: *crashRate, crashAt: *crashAt}.check()
	if err != nil {
		fatalf("%v", err)
	}
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
		fatalf("unknown runtime %q", *rtName)
	}

	mcfg := machine.DefaultT3D(*nodes)
	switch *engine {
	case "sequential":
		mcfg.Engine = sim.Sequential
	case "parallel":
		mcfg.Engine = sim.Parallel
	default:
		fatalf("unknown engine %q", *engine)
	}
	mcfg.EngineTuning = sim.Tuning{Workers: *workers}
	if *trace {
		mcfg.TraceBins = sim.Time(*traceBins) // default ~0.3 ms bins at 150 MHz; Gantt re-bins to fit
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
	}

	em3dPrm := em3d.DefaultParams(*bodies)
	if seedSet {
		em3dPrm.Seed = *seed
	}
	graphPrm := graph.DefaultParams(*vertices)
	graphPrm.Degree, graphPrm.Kind, graphPrm.Seed = *degree, *graphKind, *seed
	cell := harness.Cell{App: *app, Bodies: *bodies, Seed: *seed, Steps: *steps, Terms: *terms,
		EM3D: em3dPrm, Graph: graphPrm, Source: *source, Iters: *iters, Spec: spec, Machine: mcfg}
	if err := cell.Validate(); err != nil {
		fatalf("%v", err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memProfile)

	if stripSizes != nil {
		stripSweep(cell, stripSizes, *agg, !*noPipe)
		return
	}

	// The run's sinks: checkpoint/restore arms a snapshot at a cumulative
	// virtual time (restore re-executes the same cell deterministically and
	// verifies the state at the stored boundary bit for bit), and -traceout
	// records a tracer.
	var ckSpec *machine.CheckpointSpec
	var ckSnap *sim.Snapshot
	var ckErr error
	ckDeliver := func(s *sim.Snapshot, err error) { ckSnap, ckErr = s, err }
	switch {
	case *restorePath != "":
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			fatalf("%v", err)
		}
		snap, err := sim.Restore(data)
		if err != nil {
			fatalf("%v", err)
		}
		ckSpec = &machine.CheckpointSpec{Verify: snap, Deliver: ckDeliver}
	case *checkpointAt > 0:
		ckSpec = &machine.CheckpointSpec{At: sim.Time(*checkpointAt), Deliver: ckDeliver}
	}
	cell.Machine.Checkpoint = ckSpec
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*nodes, 0)
		cell.Machine.Obs = tracer
	}
	run, _ := cell.Exec()

	fmt.Printf("app=%s nodes=%d runtime=%s engine=%s\n", cell.App, *nodes, spec, mcfg.Engine)
	fmt.Print(run.Table(mcfg.ClockHz))
	if run.Host != nil {
		// Host-scheduler counters depend on host timing, so they go to
		// stderr: stdout must stay bit-identical across engines.
		fmt.Fprintf(os.Stderr, "host sched: %s\n", run.Host)
	}
	if ckSpec != nil {
		if !ckSpec.Done() {
			fatalf("checkpoint boundary lies beyond the run's end")
		}
		if ckErr != nil {
			fatalf("%v", ckErr)
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
				fatalf("%v", err)
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

// flags are the command-line inputs whose combinations main checks before
// anything runs or prints.
type flags struct {
	runtime                string
	shape                  bool
	strips                 string
	dpaTuning              string // the first DPA tuning flag set explicitly
	checkpointAt           int64
	checkpointOut, restore string
	traceBins              int64
	crashRate              float64
	crashAt                int64
}

// check rejects a flag combination that would otherwise be ignored or fail
// part-way through the output, and parses the -strips list (nil without one).
func (f flags) check() ([]int, error) {
	switch {
	case f.traceBins <= 0:
		return nil, fmt.Errorf("-tracebins must be positive, got %d", f.traceBins)
	case f.crashRate > 0 && f.crashAt <= 0:
		return nil, errors.New("-crash-rate requires -crash-at > 0")
	case f.checkpointAt < 0:
		return nil, fmt.Errorf("-checkpoint-at must be positive, got %d", f.checkpointAt)
	case f.restore != "" && f.checkpointAt > 0:
		return nil, errors.New("-restore and -checkpoint-at are mutually exclusive")
	case f.checkpointOut != "" && f.checkpointAt == 0:
		return nil, errors.New("-checkpoint-out requires -checkpoint-at")
	case f.strips != "" && (f.restore != "" || f.checkpointAt > 0):
		return nil, errors.New("checkpoint/restore is a single-run mode (no -strips)")
	case f.shape && f.runtime != "dpa":
		return nil, fmt.Errorf("-shape selects DPA's planned mode and needs -runtime dpa, not %s", f.runtime)
	case f.strips != "" && f.runtime != "dpa":
		return nil, fmt.Errorf("-strips sweeps DPA strip sizes and needs -runtime dpa, not %s", f.runtime)
	case f.dpaTuning != "" && f.runtime != "dpa":
		return nil, fmt.Errorf("%s tunes DPA and needs -runtime dpa, not %s", f.dpaTuning, f.runtime)
	case f.strips == "":
		return nil, nil
	}
	var sizes []int
	for _, field := range strings.Split(f.strips, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || s < 0 {
			return nil, fmt.Errorf("bad strip size %q", field)
		}
		sizes = append(sizes, s)
	}
	return sizes, nil
}

// fatalf reports a one-line error and exits with status 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpabench: "+format+"\n", args...)
	os.Exit(1)
}

// writeOut creates path and fills it with write, exiting on any error.
func writeOut(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fatalf("%v", err)
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

// stripSweep runs the cell once per static strip size plus once in planned
// mode and prints one comparison row each — the quick command-line version of
// the harness's X7 experiment.
func stripSweep(cell harness.Cell, strips []int, agg int, pipeline bool) {
	fmt.Printf("app=%s nodes=%d engine=%s strip sweep\n", cell.App, cell.Machine.Nodes, cell.Machine.Engine)
	fmt.Printf("%-12s %10s %10s %10s %10s %8s\n",
		"runtime", "time", "fetches", "refetches", "reqmsgs", "peakKB")
	row := func(sp driver.Spec) stats.Run {
		cell.Spec = sp
		r, _ := cell.Exec()
		fmt.Printf("%-12s %9.4fs %10d %10d %10d %8.1f\n",
			sp, cell.Machine.Seconds(r.Makespan), r.RT.Fetches, r.RT.Refetches,
			r.RT.ReqMsgs, float64(r.RT.PeakArrivedBytes)/1024)
		return r
	}
	opts := []driver.SpecOption{driver.WithAggLimit(agg), driver.WithPipeline(pipeline)}
	best := sim.Time(0)
	for _, s := range strips {
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
