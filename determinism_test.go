package dpa

// The determinism suite. Every run is a pure function of its inputs, so the
// same run must come out bit for bit the same under the sequential engine,
// run twice, and under the parallel engine at every worker count; with a
// checkpoint armed, and after a restore; and, where it is exported, as the
// same trace and metrics bytes. The tables this reproduction prints are only
// as trustworthy as that contract.
//
// A row names one run as a harness.Cell, and checkRows holds it to the
// contract. Tests that drive a phase loop by hand (phased_test.go) or run a
// compiled program stay bespoke and use the same helpers.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/graph"
	"dpa/internal/harness"
	"dpa/internal/pdg"
	"dpa/internal/tpart"
)

// row is one run and what, besides its statistics, run table and
// application output, must repeat: with checkpoint set, a snapshot at half
// the makespan and the restored continuation; with export set, the Chrome
// trace and Prometheus metrics. check, if set, holds what this row alone
// asserts of the baseline run.
type row struct {
	name       string
	cell       harness.Cell
	checkpoint bool
	export     bool
	check      check
}

// check is an assertion on a row's baseline run.
type check func(*testing.T, outcome)

// outcome is what one execution of a run produced.
type outcome struct {
	run            RunStats
	table          string
	out            any
	trace, metrics []byte
}

// checkRows holds every row to the contract, each in a subtest of its name
// (a row without one runs in t itself).
func checkRows(t *testing.T, rows ...row) {
	t.Helper()
	for _, r := range rows {
		if r.name == "" {
			r.verify(t)
		} else {
			t.Run(r.name, r.verify)
		}
	}
}

func (r row) verify(t *testing.T) {
	t.Helper()
	base := sweep(t, r.cell.Machine.Nodes, func(eng Engine) outcome { return r.exec(t, eng, nil) })
	if r.check != nil {
		r.check(t, base)
	}
	if !r.checkpoint {
		return
	}
	at := base.run.Makespan / 2
	if at <= 0 {
		t.Fatalf("degenerate makespan %d", base.run.Makespan)
	}
	snaps := map[string][]byte{}
	for _, eng := range []Engine{Sequential(), Parallel()} {
		t.Run(eng.String(), func(t *testing.T) {
			// Arming the checkpoint does not perturb the run.
			var snap []byte
			same(t, "checkpointed run", base, r.exec(t, eng, captureInto(t, at, &snap)))
			if snap == nil {
				t.Fatalf("checkpoint at t=%d never fired (makespan %d)", at, base.run.Makespan)
			}
			s, err := RestoreSnapshot(snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if !bytes.Equal(s.Encode(), snap) {
				t.Fatal("snapshot re-encode is not byte-identical")
			}
			if s.Meta.RequestedAt != at || int(s.Meta.Nodes) != r.cell.Machine.Nodes {
				t.Fatalf("snapshot meta %+v, want boundary %d over %d nodes", s.Meta, at, r.cell.Machine.Nodes)
			}
			// Restore is verification by re-execution: the replay matches the
			// snapshot at its boundary and continues into the plain run.
			var verr error
			verify := &CheckpointSpec{Verify: s, Deliver: func(_ *Snapshot, err error) { verr = err }}
			same(t, "restored continuation", base, r.exec(t, eng, verify))
			if !verify.Done() {
				t.Fatal("restore verification never reached the snapshot boundary")
			}
			if verr != nil {
				t.Fatalf("restored run diverged from snapshot: %v", verr)
			}
			snaps[eng.String()] = snap
		})
	}
	if seq, par := snaps["sequential"], snaps["parallel"]; seq != nil && par != nil && !bytes.Equal(seq, par) {
		t.Fatalf("sequential and parallel snapshots differ: %s", snapDiff(seq, par))
	}
}

// exec runs the row's cell under eng with checkpoint ck.
func (r row) exec(t *testing.T, eng Engine, ck *CheckpointSpec) outcome {
	t.Helper()
	c := r.cell
	c.Machine = withEngine(c.Machine, eng)
	c.Machine.Checkpoint = ck
	var tracer *Tracer
	if r.export {
		tracer = NewTracer(c.Machine.Nodes, 0)
		c.Machine.Obs = tracer
	}
	var o outcome
	o.run, o.out = c.Exec()
	o.table = o.run.Table(c.Machine.ClockHz)
	if r.export {
		o.trace, o.metrics = exported(t, tracer, o.run)
	}
	return o
}

// sweep runs exec under the sequential engine, the parallel engine at every
// worker count equivEngines yields and the sequential engine again, requires
// one outcome of all of them, and returns it.
func sweep(t *testing.T, nodes int, exec func(Engine) outcome) outcome {
	t.Helper()
	engines := append(equivEngines(nodes), Sequential())
	base := exec(engines[0])
	for _, eng := range engines[1:] {
		same(t, eng.String(), base, exec(eng))
	}
	return base
}

// same fails t unless b is the run a is.
func same(t *testing.T, what string, a, b outcome) {
	t.Helper()
	if diff := a.run.Diff(b.run); diff != "" {
		t.Fatalf("%s: runs diverge: %s", what, diff)
	}
	if a.table != b.table {
		t.Fatalf("%s: run tables differ", what)
	}
	if rendered(a.out) != rendered(b.out) {
		t.Fatalf("%s: application outputs differ", what)
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Fatalf("%s: exported traces differ", what)
	}
	if !bytes.Equal(a.metrics, b.metrics) {
		t.Fatalf("%s: exported metrics differ:\n%s\nvs\n%s", what, a.metrics, b.metrics)
	}
}

// rendered prints an application output exactly, floats as hex; em3d's graph
// prints as its node values.
func rendered(out any) string {
	if g, ok := out.(*em3d.Graph); ok {
		e, h := g.Values()
		return fmt.Sprintf("%x %x", e, h)
	}
	return fmt.Sprintf("%x", out)
}

// exported renders a traced run's Chrome trace and Prometheus metrics.
func exported(t *testing.T, tracer *Tracer, run RunStats) (trace, metrics []byte) {
	t.Helper()
	var mb bytes.Buffer
	if err := run.Metrics().WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	return chromeTrace(t, tracer), mb.Bytes()
}

func chromeTrace(t *testing.T, tracer *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// captureInto arms a checkpoint at cumulative time at that encodes its
// snapshot into *dst, and fails t on an error or a second delivery.
func captureInto(t *testing.T, at Time, dst *[]byte) *CheckpointSpec {
	return &CheckpointSpec{At: at, Deliver: func(s *Snapshot, err error) {
		switch {
		case err != nil:
			t.Errorf("capture at t=%d delivered error: %v", at, err)
		case *dst != nil:
			t.Errorf("checkpoint at t=%d delivered twice", at)
		default:
			*dst = s.Encode()
		}
	}}
}

// snapDiff says where two encoded snapshots differ.
func snapDiff(a, b []byte) string {
	x, errx := RestoreSnapshot(a)
	y, erry := RestoreSnapshot(b)
	if errx != nil || erry != nil {
		return fmt.Sprintf("%d vs %d bytes (%v, %v)", len(a), len(b), errx, erry)
	}
	return x.Diff(y)
}

// equivSpecs are the runtime schemes rows are compared under.
func equivSpecs() []Spec {
	return []Spec{DPASpec(8), DPASpec(8, WithShape()), CachingSpec(), BlockingSpec()}
}

// equivEngines returns the sequential engine, then the parallel engine at
// worker counts 1, 2, NumCPU and nodes (one simulated process per node),
// deduplicated after clamping to [1, nodes].
func equivEngines(nodes int) []Engine {
	engines := []Engine{Sequential()}
	seen := map[int]bool{}
	for _, w := range []int{1, 2, runtime.NumCPU(), nodes} {
		w = min(w, nodes)
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		engines = append(engines, Parallel(Workers(w)))
	}
	return engines
}

// withEngine returns mcfg running under eng.
func withEngine(mcfg MachineConfig, eng Engine) MachineConfig {
	mcfg.Engine, mcfg.EngineTuning = eng.Kind(), eng.Tuning()
	return mcfg
}

// The rows' inputs, without a spec or machine until on gives them one.

func bhCell(bodies, steps int) harness.Cell {
	return harness.Cell{App: "bh", Bodies: bodies, Seed: 42, Steps: steps}
}

func fmmCell(bodies int) harness.Cell {
	return harness.Cell{App: "fmm", Bodies: bodies, Seed: 7, Steps: 1, Terms: fmm.DefaultParams(bodies).Terms}
}

func em3dCell(perKind, iters int) harness.Cell {
	return harness.Cell{App: "em3d", EM3D: em3d.DefaultParams(perKind), Iters: iters}
}

// graphCell is a small graph app, connected enough that every app does real
// multi-phase work: BFS from vertex 0, two PageRank iterations, or CC.
func graphCell(app string) harness.Cell {
	prm := graph.DefaultParams(224)
	prm.Degree = 6
	return harness.Cell{App: app, Graph: prm, Iters: 2}
}

// on runs c under spec on four T3D nodes with fault plan fc.
func on(c harness.Cell, spec Spec, fc FaultConfig) harness.Cell {
	c.Spec, c.Machine = spec, DefaultT3D(4)
	c.Machine.Faults = fc
	return c
}

// crashFaults is 3% loss plus a crash lottery at cumulative time at.
func crashFaults(at Time) FaultConfig {
	fc := DefaultFaults(7, 0.03)
	fc.CrashRate, fc.CrashAt = 0.5, at
	return fc
}

// all asserts every one of cs.
func all(cs ...check) check {
	return func(t *testing.T, o outcome) {
		t.Helper()
		for _, c := range cs {
			c(t, o)
		}
	}
}

func clean(t *testing.T, o outcome) {
	t.Helper()
	if o.run.Err != nil {
		t.Fatalf("run degraded: %v", o.run.Err)
	}
}

// recovered: the fault plan dropped and retransmitted messages, and the run
// completed anyway.
func recovered(t *testing.T, o outcome) {
	t.Helper()
	clean(t, o)
	if f := o.run.Faults; f.Dropped == 0 || f.Retransmits == 0 {
		t.Fatalf("fault plan inactive: %+v", f)
	}
}

// crashed: the crash lottery killed a node, and the run's error says so with
// a well-formed *CrashError.
func crashed(t *testing.T, o outcome) {
	t.Helper()
	var ce *CrashError
	switch {
	case o.run.Faults.Crashes == 0:
		t.Fatalf("crash schedule inactive: %+v", o.run.Faults)
	case !errors.Is(o.run.Err, ErrCrashed):
		t.Fatalf("error chain %v lacks ErrCrashed", o.run.Err)
	case !errors.As(o.run.Err, &ce) || ce.At <= 0 || fmt.Sprint(ce) == "":
		t.Fatalf("error chain %v lacks a well-formed *CrashError", o.run.Err)
	}
}

// refetchFree: a clean planned run fetches every object once per reuse
// region.
func refetchFree(t *testing.T, o outcome) {
	t.Helper()
	if o.run.RT.Refetches != 0 {
		t.Fatalf("planned run refetched %d objects, want 0", o.run.RT.Refetches)
	}
}

// planned: the planner ran and, with warm set, a repeated phase kind planned
// its first strip from the prior folded at the seam.
func planned(warm bool) check {
	return func(t *testing.T, o outcome) {
		t.Helper()
		rt := o.run.RT
		if rt.PlanStrips == 0 {
			t.Fatalf("planner never ran: %+v", rt)
		}
		if warm && (rt.PlanPriorHits == 0 || rt.PriorBytes == 0) {
			t.Fatalf("repeated phases never warm-started: %+v", rt)
		}
	}
}

// cold: no phase read a prior, since none repeated its kind.
func cold(t *testing.T, o outcome) {
	t.Helper()
	if o.run.RT.PlanPriorHits != 0 {
		t.Fatalf("cold phases claimed %d prior hits, want 0", o.run.RT.PlanPriorHits)
	}
}

// traced: the exported trace holds events of the named kind.
func traced(kind string) check {
	return func(t *testing.T, o outcome) {
		t.Helper()
		if !bytes.Contains(o.trace, []byte(`"`+kind+`"`)) {
			t.Fatalf("trace has no %q events", kind)
		}
	}
}

// nearFaultFree: a lossy em3d run's values are within 1e-9 (relative) of the
// same cell's fault-free run. Retransmitted replies arrive in another order
// and floating-point accumulation does not associate, so only the low bits
// may differ.
func nearFaultFree(c harness.Cell) check {
	return func(t *testing.T, o outcome) {
		t.Helper()
		c.Machine.Faults = FaultConfig{}
		_, ref := c.Exec()
		e0, h0 := ref.(*em3d.Graph).Values()
		e, h := o.out.(*em3d.Graph).Values()
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
		for j := range e {
			if !near(e[j], e0[j]) || !near(h[j], h0[j]) {
				t.Fatalf("value %d diverges from the fault-free run: E %v vs %v, H %v vs %v", j, e[j], e0[j], h[j], h0[j])
			}
		}
	}
}

// TestCheckpointEquivalence takes the paper's applications, and EM3D with
// warm planner and prior state at the boundary, through the checkpoint
// contract, fault-free and under loss plus crashes.
func TestCheckpointEquivalence(t *testing.T) {
	apps := []struct {
		name string
		cell harness.Cell
		spec Spec
	}{
		{"bh", bhCell(192, 1), DPASpec(16)},
		{"fmm", fmmCell(128), DPASpec(16)},
		{"em3d", em3dCell(160, 2), DPASpec(8)},
		// Two iterations are four phases, so the boundary lands in a later
		// phase with non-empty priors. The graph is larger than em3d's
		// because the planner shortens phases, and each must still cross the
		// crash time.
		{"em3d-prior", em3dCell(320, 2), DPASpec(8, WithShape())},
	}
	var rows []row
	for _, a := range apps {
		rows = append(rows,
			row{name: a.name, cell: on(a.cell, a.spec, FaultConfig{}), checkpoint: true, check: clean},
			row{name: a.name + "/faulty", cell: on(a.cell, a.spec, crashFaults(150_000)), checkpoint: true, check: crashed})
	}
	checkRows(t, rows...)
}

// TestCheckpointObsExports: a checkpointed and a restore-verified run export
// the uninterrupted run's trace and metrics.
func TestCheckpointObsExports(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 2), DPASpec(8), FaultConfig{}), checkpoint: true, export: true, check: clean})
}

func TestCrashDeterminism(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 2), DPASpec(8), crashFaults(150_000)), check: crashed})
}

// TestPriorCrashDeterminism: partial results, crash errors and the prior
// counters of a planned run under loss and crashes repeat.
func TestPriorCrashDeterminism(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 2), DPASpec(8, WithShape()), crashFaults(20_000)), check: crashed})
}

// TestCheckpointVerifyDetectsDivergence: replaying under another fault seed
// delivers a typed divergence and records it on the run.
func TestCheckpointVerifyDetectsDivergence(t *testing.T) {
	c := on(em3dCell(160, 2), DPASpec(8), crashFaults(150_000))
	// An early boundary both fault schedules reach.
	var snapBytes []byte
	c.Machine.Checkpoint = captureInto(t, 100_000, &snapBytes)
	c.Exec()
	snap, err := RestoreSnapshot(snapBytes)
	if err != nil {
		t.Fatal(err)
	}
	var verr error
	verify := &CheckpointSpec{Verify: snap, Deliver: func(_ *Snapshot, err error) { verr = err }}
	c.Machine.Faults.Seed = 8
	c.Machine.Checkpoint = verify
	run, _ := c.Exec()
	if !verify.Done() {
		t.Fatal("verification boundary never fired")
	}
	if !errors.Is(verr, ErrSnapshotDiverged) {
		t.Fatalf("delivered error %v does not wrap ErrSnapshotDiverged", verr)
	}
	if !errors.Is(run.Err, ErrSnapshotDiverged) {
		t.Fatalf("run error %v does not record the divergence", run.Err)
	}
}

// TestCheckpointParkedStateCanonical is the regression test for a snapshot
// that depended on host timing. A node that charges past a message's arrival
// and then waits parks either blocked (the message was posted after it
// entered the wait, and lowered its wake into its past) or ready at its clock
// (the message was already there). Under the parallel engine the poster and
// the waiter run concurrently in one window, so which of the two happened was
// a race: this cell (1024 bodies, boundary at 20000, while node 0 is far
// ahead of the others) captured a different snapshot in three of four
// parallel runs. The snapshot now encodes both as the ready process they are
// (sim.EncodeProcs), so every parallel capture equals the sequential one.
func TestCheckpointParkedStateCanonical(t *testing.T) {
	c := fmmCell(1024)
	c.Seed, c.Spec, c.Machine = 42, CachingSpec(), DefaultT3D(8)
	capture := func(eng Engine) []byte {
		var snap []byte
		c := c
		c.Machine = withEngine(c.Machine, eng)
		c.Machine.Checkpoint = captureInto(t, 20000, &snap)
		c.Exec()
		if snap == nil {
			t.Fatal("checkpoint at t=20000 never fired")
		}
		return snap
	}
	want := capture(Sequential())
	for i := 0; i < 30; i++ {
		if got := capture(Parallel(Workers(2))); !bytes.Equal(got, want) {
			t.Fatalf("parallel capture %d differs from the sequential capture: %s", i, snapDiff(want, got))
		}
	}
}

func TestEngineEquivalenceEM3D(t *testing.T) {
	var rows []row
	for _, spec := range equivSpecs() {
		rows = append(rows, row{name: spec.String(), cell: on(em3dCell(160, 2), spec, FaultConfig{}), check: clean})
	}
	checkRows(t, rows...)
}

// TestFaultEquivalenceEM3D recovers EM3D at 5% loss, with values close to the
// fault-free run's.
func TestFaultEquivalenceEM3D(t *testing.T) {
	lossy := on(em3dCell(160, 2), DPASpec(8), DefaultFaults(11, 0.05))
	checkRows(t, row{cell: lossy, check: all(recovered, nearFaultFree(lossy))})
}

func TestFaultEquivalenceBarnesHut(t *testing.T) {
	checkRows(t, row{cell: on(bhCell(256, 1), DPASpec(16), DefaultFaults(13, 0.05)), check: recovered})
}

// TestStealDeterminismUnderFaults: steal decisions and the worker count move
// host work only, even while loss and jitter drive retransmissions.
func TestStealDeterminismUnderFaults(t *testing.T) {
	fc := DefaultFaults(13, 0.05)
	fc.JitterRate, fc.MaxJitter = 0.2, 300
	checkRows(t, row{cell: on(bhCell(256, 1), DPASpec(16), fc), check: recovered})
}

// TestFaultJitterDeterminism: delay jitter and node stalls, without loss, are
// seeded like the rest of the schedule.
func TestFaultJitterDeterminism(t *testing.T) {
	fc := FaultConfig{FaultParams: FaultParams{
		Seed: 3, JitterRate: 0.3, MaxJitter: 500, StallRate: 0.01, StallCycles: 2000,
	}}
	checkRows(t, row{cell: on(em3dCell(160, 1), DPASpec(8), fc), check: all(clean, func(t *testing.T, o outcome) {
		if f := o.run.Faults; f.Jittered == 0 || f.Stalls == 0 {
			t.Fatalf("jitter or stalls inactive: %+v", f)
		}
	})})
}

// TestFaultScheduleRepeatable: the schedule depends on the seed, not on host
// interleaving or run count.
func TestFaultScheduleRepeatable(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 1), DPASpec(8), DefaultFaults(99, 0.05)), check: recovered})
}

// TestGraphEngineEquivalence sweeps the graph family (DESIGN.md §14) over
// fault-free, lossy and crashing plans. Graph phases are short, so the crash
// lottery fires early.
func TestGraphEngineEquivalence(t *testing.T) {
	plans := []struct {
		name  string
		fc    FaultConfig
		check check
	}{{"fault-free", FaultConfig{}, clean}, {"loss5", DefaultFaults(7, 0.05), recovered}, {"crashy", crashFaults(20_000), crashed}}
	for _, app := range []string{"bfs", "pagerank", "cc"} {
		for _, p := range plans {
			t.Run(app+"/"+p.name, func(t *testing.T) {
				checkRows(t, row{name: DPASpec(8).String(), cell: on(graphCell(app), DPASpec(8), p.fc), check: p.check})
			})
		}
	}
}

func TestGraphCheckpointEquivalence(t *testing.T) {
	var rows []row
	for _, app := range []string{"bfs", "pagerank", "cc"} {
		rows = append(rows, row{name: app + "-mdtable", cell: on(graphCell(app), DPASpec(8), FaultConfig{}), checkpoint: true, check: clean})
	}
	checkRows(t, rows...)
}

// TestGraphPriorZeroRefetches: with the cross-phase prior on, no graph app
// refetches, and the repeated phases consult the prior.
func TestGraphPriorZeroRefetches(t *testing.T) {
	var rows []row
	for _, app := range []string{"bfs", "pagerank", "cc"} {
		rows = append(rows, row{name: app, cell: on(graphCell(app), DPASpec(16, WithShape()), FaultConfig{}),
			check: all(clean, refetchFree, planned(true))})
	}
	checkRows(t, rows...)
}

// TestObsEquivalenceAcrossEngines: an exported trace and metrics snapshot
// are functions of the simulated execution alone.
func TestObsEquivalenceAcrossEngines(t *testing.T) {
	var rows []row
	for _, spec := range equivSpecs() {
		rows = append(rows, row{name: spec.String(), cell: on(em3dCell(64, 1), spec, FaultConfig{}), export: true,
			check: all(clean, traced("fetch_req"))})
	}
	checkRows(t, rows...)
}

// TestObsEquivalenceAcrossRepeats: exporting the same run twice under one
// engine gives the same bytes.
func TestObsEquivalenceAcrossRepeats(t *testing.T) {
	checkRows(t, row{cell: on(fmmCell(128), DPASpec(16), FaultConfig{}), export: true, check: clean})
}

func TestObsEquivalenceUnderFaults(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 1), DPASpec(8), DefaultFaults(7, 0.05)), export: true,
		check: all(recovered, traced("fault"))})
}

// plannedRows are c in planned mode, fault-free and at 5% loss. warm is set
// when c repeats a phase kind.
func plannedRows(c harness.Cell, warm bool) []row {
	spec := DPASpec(8, WithShape())
	return []row{
		{name: "clean", cell: on(c, spec, FaultConfig{}), check: all(clean, refetchFree, planned(warm))},
		{name: "loss5", cell: on(c, spec, DefaultFaults(7, 0.05)), check: all(recovered, planned(warm))},
	}
}

// The Planner tests run one phase of each kind, every strip planned cold from
// the cost model; the Prior tests repeat each kind, so the second phase plans
// its first strip from the prior.
func TestPlannerDeterminismEM3D(t *testing.T) { checkRows(t, plannedRows(em3dCell(160, 1), false)...) }
func TestPlannerDeterminismBarnesHut(t *testing.T) {
	checkRows(t, plannedRows(bhCell(256, 1), false)...)
}
func TestPlannerDeterminismFMM(t *testing.T)     { checkRows(t, plannedRows(fmmCell(1024), false)...) }
func TestPriorDeterminismEM3D(t *testing.T)      { checkRows(t, plannedRows(em3dCell(160, 2), true)...) }
func TestPriorDeterminismBarnesHut(t *testing.T) { checkRows(t, plannedRows(bhCell(256, 2), true)...) }

// TestPlannerOffBitIdentical: a static spec runs no planned code path, and
// em3d's prior store alone moves nothing.
func TestPlannerOffBitIdentical(t *testing.T) {
	checkRows(t, row{cell: on(em3dCell(160, 2), DPASpec(8), FaultConfig{}), check: func(t *testing.T, o outcome) {
		rt := o.run.RT
		if rt.PlanStrips != 0 || rt.PlanMispredicts != 0 ||
			rt.PlanPriorHits != 0 || rt.PriorBytes != 0 || rt.ShapedRuns != 0 ||
			rt.StripGrows != 0 || rt.StripShrinks != 0 || rt.FinalStrip != 0 || len(o.run.Adapt) != 0 {
			t.Fatalf("planner counters moved in static mode: %+v", rt)
		}
	}})
}

// TestPriorWarmStartsSecondPhase: the first phase of a kind is cold, and
// every later one plans from the fold. BH rebuilds its tree every step, so
// shaping declines to identity order but the strip and batching priors still
// apply; EM3D's fixed-length loops shape.
func TestPriorWarmStartsSecondPhase(t *testing.T) {
	spec := DPASpec(8, WithShape())
	checkRows(t,
		row{name: "bh/1", cell: on(bhCell(192, 1), spec, FaultConfig{}), check: cold},
		row{name: "bh/2", cell: on(bhCell(192, 2), spec, FaultConfig{}), check: planned(true)},
		row{name: "em3d/1", cell: on(em3dCell(160, 1), spec, FaultConfig{}), check: cold},
		row{name: "em3d/2", cell: on(em3dCell(160, 2), spec, FaultConfig{}), check: all(planned(true), func(t *testing.T, o outcome) {
			if o.run.RT.ShapedRuns == 0 {
				t.Fatalf("fixed-shape loops never shaped a run: %+v", o.run.RT)
			}
		})})
}

// treesum runs the compiled tree-sum program of examples/treesum from node 0
// of four over a depth-8 tree, traced, under spec, eng and fault plan fc. Its
// output is the sum, which must be the interpreter's.
func treesum(t *testing.T, spec Spec, eng Engine, fc FaultConfig) outcome {
	t.Helper()
	prog := treesumProgram()
	compiled := tpart.Compile(prog, nil)
	if _, err := tpart.Validate(compiled); err != nil {
		t.Fatal(err)
	}
	space := NewSpace(4)
	root := treesumTree(space, 8)
	want := pdg.RunSeq(prog, space, root).Acc["sum"]
	mcfg := withEngine(DefaultT3D(4), eng)
	mcfg.Faults, mcfg.Obs = fc, NewTracer(4, 0)
	res := pdg.NewResult()
	run := RunPhase(mcfg, space, spec, func(rt Runtime, ep *Endpoint, nd *Node) {
		if nd.ID() == 0 {
			tpart.Run(compiled, rt, nd, res, root)
		}
	})
	if got := res.Acc["sum"]; got != want {
		t.Fatalf("%v: sum %v, want %v", eng, got, want)
	}
	o := outcome{run: run, table: run.Table(mcfg.ClockHz), out: want}
	o.trace, o.metrics = exported(t, mcfg.Obs, run)
	return o
}

// treesumAcross holds treesum to the contract under every spec with fault
// plan fc.
func treesumAcross(t *testing.T, fc FaultConfig, check check) {
	for _, spec := range equivSpecs() {
		t.Run(spec.String(), func(t *testing.T) {
			check(t, sweep(t, 4, func(eng Engine) outcome { return treesum(t, spec, eng, fc) }))
		})
	}
}

func TestEngineEquivalenceTreesum(t *testing.T) { treesumAcross(t, FaultConfig{}, clean) }

func TestFaultEquivalenceTreesum(t *testing.T) { treesumAcross(t, DefaultFaults(7, 0.05), recovered) }

// treesumProgram is the recursive tree-sum pointer program.
func treesumProgram() *pdg.Program {
	return &pdg.Program{
		Entry: "main",
		Funcs: map[string]*pdg.Func{
			"main": {Name: "main", Params: []string{"root"}, Body: []pdg.Stmt{
				pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "root"}}},
			}},
			"walk": {Name: "walk", Params: []string{"t"}, Body: []pdg.Stmt{
				pdg.GLoad{Dst: "v", Ptr: "t", Field: "val"},
				pdg.Work{Cost: 40, Uses: []string{"v"}},
				pdg.Accum{Target: "sum", E: pdg.V{Name: "v"}},
				pdg.GLoad{Dst: "l", Ptr: "t", Field: "left"},
				pdg.GLoad{Dst: "r", Ptr: "t", Field: "right"},
				pdg.If{Cond: pdg.Not{E: pdg.IsNil{E: pdg.V{Name: "l"}}},
					Then: []pdg.Stmt{pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "l"}}}}},
				pdg.If{Cond: pdg.Not{E: pdg.IsNil{E: pdg.V{Name: "r"}}},
					Then: []pdg.Stmt{pdg.Call{Fn: "walk", Args: []pdg.Expr{pdg.V{Name: "r"}}}}},
			}},
		},
	}
}

// treesumTree builds a complete binary tree of the given depth, node id on
// owner id mod nodes.
func treesumTree(space *Space, depth int) Ptr {
	var mk func(d, id int) Ptr
	mk = func(d, id int) Ptr {
		if d == 0 {
			return Nil
		}
		rec := &pdg.Record{F: map[string]pdg.Value{
			"val":   float64(id),
			"left":  mk(d-1, 2*id),
			"right": mk(d-1, 2*id+1),
		}}
		return space.Alloc(id%space.Nodes(), rec)
	}
	return mk(depth, 1)
}

// spawnEverywhere is a phase over one object per node in which every node
// spawns a thread on every object.
func spawnEverywhere(nodes int) (*Space, func(Runtime, *Endpoint, *Node)) {
	space := NewSpace(nodes)
	ptrs := make([]Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, &pdg.Record{F: map[string]pdg.Value{"val": float64(i)}})
	}
	return space, func(rt Runtime, ep *Endpoint, nd *Node) {
		for _, p := range ptrs {
			rt.Spawn(p, func(o Object) {})
		}
		rt.Drain()
	}
}

// TestExhaustedRetriesTypedError drives loss to 100%: every cross-node send
// exhausts its retries, and the run completes, the same on both engines, with
// an error that wraps ErrUnreachable.
func TestExhaustedRetriesTypedError(t *testing.T) {
	fc := DefaultFaults(1, 1.0)
	fc.RelRTO, fc.RelMaxRetries = 256, 3 // a short retry schedule keeps the test fast
	space, body := spawnEverywhere(3)
	for _, spec := range equivSpecs() {
		t.Run(spec.String(), func(t *testing.T) {
			var runs [2]RunStats
			for i, eng := range []Engine{Sequential(), Parallel()} {
				mcfg := withEngine(DefaultT3D(3), eng)
				mcfg.Faults = fc
				runs[i] = RunPhase(mcfg, space, spec, body)
				if !errors.Is(runs[i].Err, ErrUnreachable) {
					t.Fatalf("%v: error %v does not wrap ErrUnreachable", eng, runs[i].Err)
				}
			}
			if diff := runs[0].Diff(runs[1]); diff != "" {
				t.Fatalf("sequential vs parallel degraded runs diverge: %s", diff)
			}
		})
	}
}

// TestRunPhaseValidationOption: WithValidation's cross-engine check passes on
// a deterministic phase.
func TestRunPhaseValidationOption(t *testing.T) {
	space, body := spawnEverywhere(3)
	if run := RunPhase(DefaultT3D(3), space, DPASpec(4), body, WithValidation()); run.Makespan <= 0 {
		t.Fatal("no progress")
	}
}

func TestRunPhaseRejectsInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid spec")
		}
	}()
	RunPhase(DefaultT3D(1), NewSpace(1), DPASpec(4, WithAggLimit(-1)), func(rt Runtime, ep *Endpoint, nd *Node) {})
}
