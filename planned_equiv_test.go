package dpa

// Planned-mode determinism: every decision of the predictive planner —
// strip sizes from the cost model, per-destination aggregation limits from
// the owner histogram, reuse-region releases — and of its cross-phase prior,
// folded from simulated-time counters at phase seams and read back at the
// next phase's first strip, is a pure function of simulated-time state. So
// planned runs, warm phases and affinity-shaped tiles included, must be
// bit-identical across engines, worker counts, repeats, seeded loss and
// crash lotteries.

import (
	"fmt"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/em3d"
	"dpa/internal/nbody"
	"dpa/internal/stats"
)

// plannedRuns runs the workload once per engine per repeat and asserts all
// run tables (counters, makespan, and strip-size trace) are identical.
func plannedRuns(t *testing.T, name string, faults bool, run func(MachineConfig) RunStats) RunStats {
	t.Helper()
	var ref RunStats
	var refName string
	for _, eng := range equivEngines(4) {
		for rep := 0; rep < 2; rep++ {
			mcfg := DefaultT3D(4)
			mcfg.Engine = eng.Kind()
			mcfg.EngineTuning = eng.Tuning()
			if faults {
				mcfg.Faults = DefaultFaults(7, 0.05)
			}
			r := run(mcfg)
			if r.Err != nil {
				t.Fatalf("%s %v rep%d: unexpected degradation: %v", name, eng, rep, r.Err)
			}
			if refName == "" {
				ref, refName = r, fmt.Sprintf("%v rep0", eng)
				continue
			}
			if diff := ref.Diff(r); diff != "" {
				t.Fatalf("%s: %v rep%d diverges from %s: %s", name, eng, rep, refName, diff)
			}
		}
	}
	return ref
}

// checkPlanned asserts what every planned determinism run must show: the
// planner ran, and a clean run fetched every object exactly once per reuse
// region. warm runs repeat a phase kind, so they must also have warm-started
// from the prior.
func checkPlanned(t *testing.T, name string, faults, warm bool, r RunStats) {
	t.Helper()
	if r.RT.PlanStrips == 0 {
		t.Errorf("%s: planner never ran (PlanStrips=0): %+v", name, r.RT)
	}
	if warm && (r.RT.PlanPriorHits == 0 || r.RT.PriorBytes == 0) {
		t.Errorf("%s: repeated phases never warm-started: %+v", name, r.RT)
	}
	if !faults && r.RT.Refetches != 0 {
		t.Errorf("%s: planned run refetched %d objects, want 0", name, r.RT.Refetches)
	}
	if faults && (r.Faults.Dropped == 0 || r.Faults.Retransmits == 0) {
		t.Errorf("%s: fault counters inactive: %+v", name, r.Faults)
	}
}

// em3dPlanned runs iters EM3D iterations in planned mode, clean and lossy.
func em3dPlanned(t *testing.T, iters int) {
	prm := em3d.DefaultParams(160)
	spec := DPASpec(8, WithShape())
	for _, faults := range []bool{false, true} {
		name := map[bool]string{false: "fault-free", true: "5% loss"}[faults]
		r := plannedRuns(t, name, faults, func(mcfg MachineConfig) RunStats {
			run, _ := em3d.RunIters(mcfg, spec, prm, iters)
			return run
		})
		checkPlanned(t, name, faults, iters > 1, r)
	}
}

// bhPlanned runs steps Barnes-Hut steps in planned mode, clean and lossy.
func bhPlanned(t *testing.T, steps int) {
	bodies := nbody.Plummer(256, 42)
	p := bh.DefaultParams()
	spec := DPASpec(8, WithShape())
	for _, faults := range []bool{false, true} {
		name := map[bool]string{false: "fault-free", true: "5% loss"}[faults]
		r := plannedRuns(t, name, faults, func(mcfg MachineConfig) RunStats {
			return bh.RunSteps(mcfg, spec, bodies, steps, p)
		})
		checkPlanned(t, name, faults, steps > 1, r)
	}
}

// The Planner tests run one phase of each kind: every strip is planned cold,
// from the cost model alone.
func TestPlannerDeterminismEM3D(t *testing.T)      { em3dPlanned(t, 1) }
func TestPlannerDeterminismBarnesHut(t *testing.T) { bhPlanned(t, 1) }

// The Prior tests repeat each phase kind, so the second phase plans its
// first strip from the prior folded at the seam.
func TestPriorDeterminismEM3D(t *testing.T)      { em3dPlanned(t, 2) }
func TestPriorDeterminismBarnesHut(t *testing.T) { bhPlanned(t, 2) }

// TestPlannerOffBitIdentical pins the compatibility contract: a static spec
// must produce exactly the run it produced before planned mode existed —
// every planned code path is gated on the mode. em3d.RunIters always carries
// a prior store, so this also proves the store alone moves nothing.
func TestPlannerOffBitIdentical(t *testing.T) {
	spec := DPASpec(8)
	r, _ := em3d.RunIters(DefaultT3D(4), spec, em3d.DefaultParams(160), 2)
	if r.RT.PlanStrips != 0 || r.RT.PlanMispredicts != 0 || r.RT.RegionReleases != 0 {
		t.Errorf("%v: planner counters moved in static mode: %+v", spec, r.RT)
	}
	if r.RT.PlanPriorHits != 0 || r.RT.PriorBytes != 0 || r.RT.ShapedRuns != 0 {
		t.Errorf("%v: prior counters moved in static mode: %+v", spec, r.RT)
	}
	if r.RT.StripGrows != 0 || r.RT.StripShrinks != 0 || r.RT.FinalStrip != 0 || len(r.Adapt) != 0 {
		t.Errorf("%v: strip-size counters moved in static mode: %+v", spec, r.RT)
	}
}

// TestPriorWarmStartsSecondPhase pins the warm-start schedule: the first
// phase of a kind is cold by definition (there is no history to read), and
// every phase of that kind after it must plan its first strip from the fold.
// BH checks the warm start survives a reshaped iteration space (the tree is
// rebuilt every step, so shaping declines to identity order but the strip
// and batching priors still apply); EM3D's fixed-length loops must shape.
func TestPriorWarmStartsSecondPhase(t *testing.T) {
	bodies := nbody.Plummer(192, 42)
	p := bh.DefaultParams()
	spec := DPASpec(8, WithShape())
	steps := func(n int) stats.Run {
		return bh.RunSteps(DefaultT3D(4), spec, bodies, n, p)
	}
	if r := steps(1); r.RT.PlanPriorHits != 0 {
		t.Errorf("single (cold) phase claimed %d prior hits, want 0", r.RT.PlanPriorHits)
	}
	if r := steps(2); r.RT.PlanPriorHits == 0 {
		t.Errorf("second force phase never hit the prior: %+v", r.RT)
	}

	prm := em3d.DefaultParams(160)
	iters := func(n int) stats.Run {
		r, _ := em3d.RunIters(DefaultT3D(4), spec, prm, n)
		return r
	}
	// One iteration is one E and one H phase — different kinds, both cold.
	if r := iters(1); r.RT.PlanPriorHits != 0 {
		t.Errorf("first E+H phases claimed %d prior hits, want 0", r.RT.PlanPriorHits)
	}
	r := iters(2)
	if r.RT.PlanPriorHits == 0 {
		t.Errorf("repeated E/H phases never hit the prior: %+v", r.RT)
	}
	if r.RT.ShapedRuns == 0 {
		t.Errorf("fixed-shape loops never shaped a run: %+v", r.RT)
	}
}

// TestPriorCrashDeterminism runs the planned checkpoint workload (ckApps'
// em3d-prior entry) under the loss + crash-lottery fault config: partial
// results, crash errors, and the prior counters must be bit-identical across
// engines and repeats.
func TestPriorCrashDeterminism(t *testing.T) {
	app := ckApps()[3] // em3d-prior
	runs := make([]stats.Run, 0, 3)
	for _, eng := range []Engine{Sequential(), Sequential(), Parallel()} {
		runs = append(runs, app.run(ckConfig(eng, true)))
	}
	for i := 1; i < len(runs); i++ {
		if diff := runs[0].Diff(runs[i]); diff != "" {
			t.Fatalf("crash run %d diverges: %s", i, diff)
		}
	}
	if runs[0].Faults.Crashes == 0 {
		t.Fatalf("crash schedule inactive: %+v", runs[0].Faults)
	}
}
