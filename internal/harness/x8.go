package harness

import (
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// X8: chaos sweep — message loss plus permanent node crashes, with a
// mid-fault checkpoint proving deterministic recovery. X5 established that
// seeded loss is recovered exactly by the retransmission protocol; this
// extension kills nodes outright (DESIGN.md §12): the fault plan draws a
// crash fate per node, the reliability layer converts the resulting retry
// exhaustion into typed unreachable/degradation errors, and the barrier
// routes around the dead so survivors finish a smaller job instead of
// deadlocking.
// The recovery claim is then made checkable: a snapshot captured after the
// crashes (boundary past the crash time) must restore bit-identical under
// both engines, and the survivors' counters must match across engines
// exactly — chaos does not excuse nondeterminism.

func init() {
	register(Experiment{ID: "X8", Title: "Crash chaos: loss+crash sweep with checkpointed recovery (extension)", Run: runX8})
}

// x8CrashRates is the per-node crash probability sweep; 0 isolates the
// loss-only baseline under the same drop rate.
var x8CrashRates = []float64{0, 0.15, 0.30, 0.50}

const (
	x8Seed = 7
	x8Drop = 0.03
	x8Iter = 2
)

func runX8(s *Session) {
	const nodes = 16
	spec := driver.DPASpec(50)
	s.printf("Seeded chaos on %d nodes under DPA(50): %.0f%% message loss plus a\n", nodes, x8Drop*100)
	s.printf("per-node crash lottery at one quarter of the fault-free makespan.\n")
	s.printf("Crashed nodes stop answering forever; survivors exhaust the retry cap,\n")
	s.printf("declare them unreachable, abandon fetches into them, and route the\n")
	s.printf("barrier around them. DEGRADED marks runs that finish with a\n")
	s.printf("typed crash/unreachable error instead of deadlocking. Each iteration\n")
	s.printf("rebuilds the machine and redraws the lottery, so 'killed' counts\n")
	s.printf("crash events across phases, not distinct nodes.\n")
	s.printf("Every row runs the same tree barrier.\n\n")

	// Fault-free baseline fixes the virtual-time geometry: crashes land at a
	// quarter of its makespan, the checkpoint boundary at half — safely past
	// the crash time, safely before the end of even a heavily degraded run.
	base, _ := em3d.RunIters(machine.DefaultT3D(nodes), spec, em3d.DefaultParams(s.W.EM3DNodes), x8Iter)
	crashAt := base.Makespan / 4
	boundary := base.Makespan / 2

	chaosCfg := func(rate float64) machine.Config {
		cfg := machine.DefaultT3D(nodes)
		cfg.Faults = machine.FaultConfig{
			FaultParams: sim.FaultParams{Seed: x8Seed, DropRate: x8Drop, CrashRate: rate, CrashAt: crashAt},
			Reliable:    true,
		}
		return cfg
	}
	run := func(cfg machine.Config) stats.Run {
		r, _ := em3d.RunIters(cfg, spec, em3d.DefaultParams(s.W.EM3DNodes), x8Iter)
		return r
	}

	s.printf("EM3D (fault-free: %.2fms, crash at %d, checkpoint at %d)\n",
		s.Clock().Seconds(base.Makespan)*1e3, crashAt, boundary)
	s.printf("%8s %12s %8s %8s %10s %10s %8s\n",
		"crash", "time", "killed", "dropped", "retrans", "exhausted", "probes")
	for _, rate := range x8CrashRates {
		r := run(chaosCfg(rate))
		status := ""
		if r.Err != nil {
			status = "  DEGRADED"
		}
		s.printf("%7.0f%% %10.2fms %8d %8d %10d %10d %8d%s\n",
			rate*100, s.Clock().Seconds(r.Makespan)*1e3,
			r.Faults.Crashes, r.Faults.Dropped, r.Faults.Retransmits,
			r.Faults.Exhausted, r.Faults.Probes, status)
	}

	// Recovery proof, on the heaviest chaos configuration: capture a snapshot
	// under the sequential engine at a boundary PAST the crashes, then verify
	// it bit-for-bit under both engines. A verified restore plus determinism
	// means the continued run matches the original by induction; the
	// cross-engine run diff closes the loop on the counters themselves.
	heaviest := x8CrashRates[len(x8CrashRates)-1]
	ckRun := func(eng sim.EngineKind, verify *sim.Snapshot) (stats.Run, *sim.Snapshot, error) {
		cfg := chaosCfg(heaviest)
		cfg.Engine = eng
		var snap *sim.Snapshot
		var snapErr error
		ck := &machine.CheckpointSpec{Deliver: func(sn *sim.Snapshot, err error) { snap, snapErr = sn, err }}
		if verify != nil {
			ck.Verify = verify
		} else {
			ck.At = boundary
		}
		cfg.Checkpoint = ck
		r := run(cfg)
		if !ck.Done() {
			s.printf("checkpoint boundary %d never reached — run too short\n", boundary)
		}
		return r, snap, snapErr
	}

	s.printf("\nrecovery proof at crash rate %.0f%%:\n", heaviest*100)
	seqRun, snap, err := ckRun(sim.Sequential, nil)
	if err != nil || snap == nil {
		s.printf("capture FAILED: %v\n", err)
		return
	}
	s.printf("captured: boundary=%d phase=%d sections=%d bytes=%d\n",
		snap.Meta.Boundary, snap.Meta.Phase, len(snap.Sections), len(snap.Encode()))
	for _, eng := range []struct {
		name string
		kind sim.EngineKind
	}{{"sequential", sim.Sequential}, {"parallel", sim.Parallel}} {
		r, _, verr := ckRun(eng.kind, snap)
		if verr != nil {
			s.printf("restore under %-10s DIVERGED: %v\n", eng.name, verr)
			continue
		}
		s.printf("restore under %-10s verified bit-identical at the boundary\n", eng.name)
		if eng.kind == sim.Parallel {
			if d := seqRun.Diff(r); d != "" {
				s.printf("cross-engine run MISMATCH: %s\n", d)
			} else {
				s.printf("cross-engine run identical: %d retransmits, %d exhausted, %d refetches, %d probes\n",
					r.Faults.Retransmits, r.Faults.Exhausted, r.RT.Refetches, r.Faults.Probes)
			}
		}
	}
}
