package dpa

// Fault-injection equivalence and degradation tests: the fault schedule is
// a pure function of (seed, sender, program order), so a faulty run must be
// bit-identical across engines and across repeats, the reliability protocol
// must recover real workloads at realistic loss rates with correct
// application results, and an unrecoverable network must surface a typed
// error instead of hanging or panicking.

import (
	"errors"
	"fmt"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/nbody"
	"dpa/internal/pdg"
	"dpa/internal/tpart"
)

// closeEnough compares floats up to the relative error introduced by
// reassociated accumulation (retransmitted replies arrive in a different
// order than the fault-free run's).
func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if ab := abs(a); ab > m {
		m = ab
	}
	return d <= 1e-9*m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFaultEquivalenceTreesum runs the treesum pointer program at 5% seeded
// message loss under every runtime scheme and both engines: the application
// result must match the fault-free reference and the two engines' run
// tables (including fault and recovery counters) must be bit-identical.
func TestFaultEquivalenceTreesum(t *testing.T) {
	const nodes = 4
	const depth = 8
	prog := treesumProgram()
	compiled := tpart.Compile(prog, nil)
	if _, err := tpart.Validate(compiled); err != nil {
		t.Fatal(err)
	}
	space := NewSpace(nodes)
	root := buildEquivTree(space, depth)
	want := pdg.RunSeq(prog, space, root)
	fc := DefaultFaults(7, 0.05)

	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			var runs [2]RunStats
			var sums [2]pdg.Value
			for i, eng := range []Engine{Sequential(), Parallel()} {
				res := pdg.NewResult()
				mcfg := withEngine(DefaultT3D(nodes), eng)
				mcfg.Faults = fc
				runs[i] = RunPhase(mcfg, space, spec,
					func(rt Runtime, ep *Endpoint, nd *Node) {
						if nd.ID() == 0 {
							tpart.Run(compiled, rt, nd, res, root)
						}
					})
				sums[i] = res.Acc["sum"]
			}
			for i := range runs {
				if sums[i] != want.Acc["sum"] {
					t.Errorf("engine %d: sum %v, want %v", i, sums[i], want.Acc["sum"])
				}
				if runs[i].Err != nil {
					t.Errorf("engine %d: unexpected degradation: %v", i, runs[i].Err)
				}
			}
			if diff := runs[0].Diff(runs[1]); diff != "" {
				t.Fatalf("sequential vs parallel faulty runs diverge: %s", diff)
			}
			if runs[0].Faults.Dropped == 0 {
				t.Error("no messages dropped at 5% loss — fault plan not active?")
			}
			if runs[0].Faults.Retransmits == 0 {
				t.Error("drops recorded but no retransmissions — recovery not active?")
			}
		})
	}
}

// TestFaultEquivalenceEM3D recovers the em3d workload at 5% loss. The two
// engines must agree bit-for-bit on the faulty run (same fault schedule,
// same recovery, same delivery order). Against the fault-free reference the
// values are compared with a tolerance: retransmitted replies arrive in a
// different order, and floating-point accumulation is not associative, so
// low-order bits legitimately differ while the computation stays correct.
func TestFaultEquivalenceEM3D(t *testing.T) {
	const nodes = 4
	const iters = 2
	prm := em3d.DefaultParams(160)
	spec := DPASpec(8)

	mref := DefaultT3D(nodes)
	_, gref := em3d.RunIters(mref, spec, prm, iters)
	eref, href := gref.Values()

	var runs [2]RunStats
	var faultyVals [2]string
	for i, eng := range []Engine{Sequential(), Parallel()} {
		mcfg := DefaultT3D(nodes)
		mcfg.Engine = eng.Kind()
		mcfg.EngineTuning = eng.Tuning()
		mcfg.Faults = DefaultFaults(11, 0.05)
		run, g := em3d.RunIters(mcfg, spec, prm, iters)
		runs[i] = run
		e, h := g.Values()
		faultyVals[i] = fmt.Sprintf("%x %x", e, h)
		for j := range e {
			if !closeEnough(e[j], eref[j]) || !closeEnough(h[j], href[j]) {
				t.Fatalf("%v: value %d diverges from fault-free reference: E %v vs %v, H %v vs %v",
					eng, j, e[j], eref[j], h[j], href[j])
			}
		}
		if run.Err != nil {
			t.Errorf("%v: unexpected degradation: %v", eng, run.Err)
		}
	}
	if faultyVals[0] != faultyVals[1] {
		t.Error("faulty graph values diverge between engines")
	}
	if diff := runs[0].Diff(runs[1]); diff != "" {
		t.Fatalf("sequential vs parallel faulty runs diverge: %s", diff)
	}
	if runs[0].Faults.Dropped == 0 || runs[0].Faults.Retransmits == 0 {
		t.Errorf("fault counters inactive: %+v", runs[0].Faults)
	}
}

// TestFaultEquivalenceBarnesHut recovers a small Barnes-Hut force phase at
// 5% loss with identical results across engines.
func TestFaultEquivalenceBarnesHut(t *testing.T) {
	const nodes = 4
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()

	var runs [2]RunStats
	for i, eng := range []Engine{Sequential(), Parallel()} {
		mcfg := DefaultT3D(nodes)
		mcfg.Engine = eng.Kind()
		mcfg.EngineTuning = eng.Tuning()
		mcfg.Faults = DefaultFaults(13, 0.05)
		runs[i] = bh.RunSteps(mcfg, DPASpec(16), bodies, 1, p)
		if runs[i].Err != nil {
			t.Errorf("%v: unexpected degradation: %v", eng, runs[i].Err)
		}
	}
	if diff := runs[0].Diff(runs[1]); diff != "" {
		t.Fatalf("sequential vs parallel faulty runs diverge: %s", diff)
	}
	if runs[0].Faults.Dropped == 0 || runs[0].Faults.Retransmits == 0 {
		t.Errorf("fault counters inactive: %+v", runs[0].Faults)
	}
}

// TestStealDeterminismUnderFaults is the steal-path determinism check: a
// faulty Barnes-Hut force phase must produce bit-identical run tables under
// the sequential engine and under the parallel engine at two workers and at
// one worker per node — steal decisions (and worker count) move host work
// only, never virtual-time results, even when the fault schedule is
// exercising retransmission paths.
func TestStealDeterminismUnderFaults(t *testing.T) {
	const nodes = 4
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()
	engines := []Engine{
		Sequential(),
		Parallel(Workers(2)),
		Parallel(Workers(nodes)),
	}
	runs := make([]RunStats, len(engines))
	for i, eng := range engines {
		mcfg := DefaultT3D(nodes)
		mcfg.Engine = eng.Kind()
		mcfg.EngineTuning = eng.Tuning()
		mcfg.Faults = DefaultFaults(13, 0.05)
		runs[i] = bh.RunSteps(mcfg, DPASpec(16), bodies, 1, p)
		if runs[i].Err != nil {
			t.Errorf("%v: unexpected degradation: %v", eng, runs[i].Err)
		}
	}
	for i := 1; i < len(engines); i++ {
		if diff := runs[0].Diff(runs[i]); diff != "" {
			t.Fatalf("sequential vs %v faulty runs diverge: %s", engines[i], diff)
		}
	}
}

// TestFaultJitterDeterminism injects delay jitter and node stalls (no loss,
// so no reliability layer) and checks both engines agree: jitter only adds
// delay, which is lookahead-safe, and the stall schedule is seeded.
func TestFaultJitterDeterminism(t *testing.T) {
	const nodes = 4
	prm := em3d.DefaultParams(160)
	fc := FaultConfig{FaultParams: FaultParams{
		Seed: 3, JitterRate: 0.3, MaxJitter: 500, StallRate: 0.01, StallCycles: 2000,
	}}

	var runs [2]RunStats
	for i, eng := range []Engine{Sequential(), Parallel()} {
		mcfg := DefaultT3D(nodes)
		mcfg.Engine = eng.Kind()
		mcfg.EngineTuning = eng.Tuning()
		mcfg.Faults = fc
		run, _ := em3d.RunIters(mcfg, DPASpec(8), prm, 1)
		runs[i] = run
		if run.Err != nil {
			t.Errorf("%v: unexpected degradation: %v", eng, run.Err)
		}
	}
	if diff := runs[0].Diff(runs[1]); diff != "" {
		t.Fatalf("sequential vs parallel jittered runs diverge: %s", diff)
	}
	if runs[0].Faults.Jittered == 0 {
		t.Error("no messages jittered at 30% jitter rate")
	}
	if runs[0].Faults.Stalls == 0 {
		t.Error("no stalls injected at 1% stall rate")
	}
}

// TestExhaustedRetriesTypedError drives the loss rate to 100%: every
// cross-node send exhausts its retries, and the run must complete (no hang,
// no panic) with an error chain containing ErrUnreachable.
func TestExhaustedRetriesTypedError(t *testing.T) {
	const nodes = 3
	fc := DefaultFaults(1, 1.0)
	// Keep the retry schedule short so the test stays fast.
	fc.RelRTO = 256
	fc.RelMaxRetries = 3
	space := NewSpace(nodes)
	ptrs := make([]Ptr, nodes)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i, &pdg.Record{F: map[string]pdg.Value{"val": float64(i)}})
	}
	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			var runs [2]RunStats
			for i, eng := range []Engine{Sequential(), Parallel()} {
				mcfg := withEngine(DefaultT3D(nodes), eng)
				mcfg.Faults = fc
				runs[i] = RunPhase(mcfg, space, spec,
					func(rt Runtime, ep *Endpoint, nd *Node) {
						for _, p := range ptrs {
							rt.Spawn(p, func(o Object) {})
						}
						rt.Drain()
					})
				if runs[i].Err == nil {
					t.Fatalf("%v: expected degradation error at 100%% loss", eng)
				}
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

// TestFaultScheduleRepeatable runs the same faulty configuration twice and
// demands bit-identical run tables: the schedule depends on the seed, not
// on host interleaving or run count.
func TestFaultScheduleRepeatable(t *testing.T) {
	const nodes = 4
	prm := em3d.DefaultParams(160)
	run := func() RunStats {
		mcfg := DefaultT3D(nodes)
		mcfg.Faults = DefaultFaults(99, 0.05)
		r, _ := em3d.RunIters(mcfg, DPASpec(8), prm, 1)
		return r
	}
	a, b := run(), run()
	if diff := a.Diff(b); diff != "" {
		t.Fatalf("same seed, different runs: %s", diff)
	}
}
