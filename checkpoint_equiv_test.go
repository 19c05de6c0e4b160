package dpa

// Checkpoint/restore equivalence tests — the tentpole determinism contract:
//
//  1. Arming a checkpoint must not perturb a run: the checkpointed run's
//     table is bit-identical to an uninterrupted run.
//  2. A snapshot survives an encode/decode round trip byte-for-byte.
//  3. Restore is verification by deterministic re-execution: replaying the
//     run with the snapshot as the Verify target re-captures at the same
//     boundary and must match exactly (nil divergence error); by induction
//     on engine determinism, the continuation after a passing verify is
//     bit-identical to the uninterrupted run — which the final run table
//     proves directly.
//  4. All of the above holds on both engines, with and without seeded
//     loss + crash faults, and the snapshots the two engines capture are
//     byte-identical to each other.
//
// The matrix runs the three paper applications (Barnes-Hut, FMM, EM3D) so
// every runtime subsystem the snapshot covers — fused M/D tables, planner
// state, reliability windows, crash state — is exercised.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

const ckNodes = 4

// ckApp is one application workload, re-runnable from scratch (each call
// rebuilds its input so mutation between runs cannot leak).
type ckApp struct {
	name string
	run  func(mcfg machine.Config) stats.Run
}

func ckApps() []ckApp {
	return []ckApp{
		{"bh", func(mcfg machine.Config) stats.Run {
			return bh.RunSteps(mcfg, driver.DPASpec(16), nbody.Plummer(192, 42), 1, bh.DefaultParams())
		}},
		{"fmm", func(mcfg machine.Config) stats.Run {
			run, _ := fmm.RunStep(mcfg, driver.DPASpec(16), nbody.Plummer(128, 7), fmm.DefaultParams(128))
			return run
		}},
		{"em3d", func(mcfg machine.Config) stats.Run {
			run, _ := em3d.RunIters(mcfg, driver.DPASpec(8), em3d.DefaultParams(160), 2)
			return run
		}},
		// Mid-run-with-priors: two iterations are four phases, so the
		// mid-makespan boundary lands in a later phase with non-empty prior
		// tables and warm planner state — the snapshot's "priors" section and
		// the planner's prior fingerprint must survive the whole matrix
		// (round trip, cross-engine byte-identity, verify + continuation).
		// The graph is bigger than the plain em3d cell's because the planner
		// shortens phases: each phase must still cross ckFaults' CrashAt so
		// the faulty cells keep their crash schedule active.
		{"em3d-prior", func(mcfg machine.Config) stats.Run {
			run, _ := em3d.RunIters(mcfg, driver.DPASpec(8, driver.WithShape()), em3d.DefaultParams(320), 2)
			return run
		}},
	}
}

// ckFaults returns the loss+crash fault config used by the faulty matrix
// cells: 3% message loss plus a deterministic crash schedule.
func ckFaults() machine.FaultConfig {
	fc := machine.DefaultFaults(7, 0.03)
	fc.CrashRate = 0.5
	fc.CrashAt = 150_000 // mid-phase for all three apps' longer phases
	return fc
}

func ckConfig(eng Engine, faults bool) machine.Config {
	mcfg := withEngine(DefaultT3D(ckNodes), eng)
	if faults {
		mcfg.Faults = ckFaults()
	}
	return mcfg
}

// captureAt runs app with a checkpoint armed at cumulative virtual time at
// and returns the encoded snapshot plus the run table.
func captureAt(t *testing.T, app ckApp, eng Engine, faults bool, at Time) ([]byte, stats.Run) {
	t.Helper()
	var snapBytes []byte
	spec := &machine.CheckpointSpec{
		At: at,
		Deliver: func(s *sim.Snapshot, err error) {
			if err != nil {
				t.Fatalf("capture delivered error: %v", err)
			}
			snapBytes = s.Encode()
		},
	}
	mcfg := ckConfig(eng, faults)
	mcfg.Checkpoint = spec
	run := app.run(mcfg)
	if !spec.Done() {
		t.Fatalf("checkpoint at t=%d never fired (makespan %d)", at, run.Makespan)
	}
	if snapBytes == nil {
		t.Fatal("checkpoint fired but delivered no snapshot")
	}
	return snapBytes, run
}

// verifyAgainst replays app with snap as the restore-verification target and
// returns the divergence error the boundary delivered plus the run table.
func verifyAgainst(t *testing.T, app ckApp, eng Engine, faults bool, snap *sim.Snapshot) (error, stats.Run) {
	t.Helper()
	delivered := false
	var verr error
	spec := &machine.CheckpointSpec{
		Verify:  snap,
		Deliver: func(s *sim.Snapshot, err error) { delivered = true; verr = err },
	}
	mcfg := ckConfig(eng, faults)
	mcfg.Checkpoint = spec
	run := app.run(mcfg)
	if !delivered {
		t.Fatal("restore verification never reached the snapshot boundary")
	}
	return verr, run
}

func TestCheckpointEquivalence(t *testing.T) {
	for _, app := range ckApps() {
		app := app
		for _, faults := range []bool{false, true} {
			faults := faults
			name := app.name
			if faults {
				name += "/faulty"
			}
			t.Run(name, func(t *testing.T) {
				// The uninterrupted reference run (sequential) fixes the
				// boundary: mid-run by total virtual time.
				base := app.run(ckConfig(Sequential(), faults))
				at := base.Makespan / 2
				if at <= 0 {
					t.Fatalf("degenerate makespan %d", base.Makespan)
				}
				if faults {
					if base.Faults.Crashes == 0 {
						t.Fatalf("crash schedule inactive: %+v", base.Faults)
					}
					if !errors.Is(base.Err, ErrCrashed) {
						t.Fatalf("faulty run error %v does not wrap ErrCrashed", base.Err)
					}
				} else if base.Err != nil {
					t.Fatalf("fault-free run degraded: %v", base.Err)
				}

				snaps := make(map[string][]byte)
				for _, eng := range []Engine{Sequential(), Parallel()} {
					eng := eng
					t.Run(eng.String(), func(t *testing.T) {
						// 1. Arming the checkpoint must not perturb the run.
						snapBytes, ckRun := captureAt(t, app, eng, faults, at)
						if diff := base.Diff(ckRun); diff != "" {
							t.Fatalf("checkpointed run diverges from plain run: %s", diff)
						}
						snaps[eng.String()] = snapBytes

						// 2. Encode/decode round trip.
						snap, err := RestoreSnapshot(snapBytes)
						if err != nil {
							t.Fatalf("restore: %v", err)
						}
						if !bytes.Equal(snap.Encode(), snapBytes) {
							t.Fatal("snapshot re-encode is not byte-identical")
						}
						if snap.Meta.RequestedAt != at || snap.Meta.Nodes != ckNodes {
							t.Fatalf("snapshot meta %+v, want boundary %d over %d nodes",
								snap.Meta, at, ckNodes)
						}

						// 3. Restore verification: replay to the boundary and
						// demand exact state match, then a bit-identical
						// continuation.
						verr, vRun := verifyAgainst(t, app, eng, faults, snap)
						if verr != nil {
							t.Fatalf("restored run diverged from snapshot: %v", verr)
						}
						if diff := base.Diff(vRun); diff != "" {
							t.Fatalf("restored continuation diverges from plain run: %s", diff)
						}
					})
				}

				// 4. The two engines captured byte-identical snapshots.
				if seq, par := snaps["sequential"], snaps["parallel"]; seq != nil && par != nil {
					if !bytes.Equal(seq, par) {
						seqSnap, _ := RestoreSnapshot(seq)
						parSnap, _ := RestoreSnapshot(par)
						detail := ""
						if seqSnap != nil && parSnap != nil {
							detail = ": " + seqSnap.Diff(parSnap)
						}
						t.Fatalf("sequential and parallel snapshots differ%s", detail)
					}
				}
			})
		}
	}
}

// TestCheckpointVerifyDetectsDivergence proves the verification path has
// teeth: replaying under a different fault seed must produce a typed
// *sim.SnapshotDivergedError, both delivered and recorded on the run.
func TestCheckpointVerifyDetectsDivergence(t *testing.T) {
	app := ckApps()[2] // em3d
	// An early boundary both fault schedules reach: the replay must get to
	// the capture point even though its run unfolds differently after (and
	// before) it.
	const at = 100_000
	snapBytes, _ := captureAt(t, app, Sequential(), true, at)
	snap, err := RestoreSnapshot(snapBytes)
	if err != nil {
		t.Fatal(err)
	}

	delivered := false
	var verr error
	spec := &machine.CheckpointSpec{
		Verify:  snap,
		Deliver: func(s *sim.Snapshot, err error) { delivered = true; verr = err },
	}
	mcfg := ckConfig(Sequential(), true)
	mcfg.Faults.Seed = 8 // not the seed the snapshot was captured under
	mcfg.Checkpoint = spec
	run := app.run(mcfg)
	if !delivered {
		t.Fatal("verification boundary never fired")
	}
	if !errors.Is(verr, ErrSnapshotDiverged) {
		t.Fatalf("delivered error %v does not wrap ErrSnapshotDiverged", verr)
	}
	if !errors.Is(run.Err, ErrSnapshotDiverged) {
		t.Fatalf("run error %v does not record the divergence", run.Err)
	}
}

// TestCheckpointObsExports proves a checkpointed and a restore-verified run
// export byte-identical observability artifacts (Chrome trace + Prometheus
// metrics) to an uninterrupted run's, on both engines.
func TestCheckpointObsExports(t *testing.T) {
	app := ckApps()[2] // em3d exercises fetch, strip, and barrier events
	type export struct{ trace, metrics []byte }
	exportRun := func(eng Engine, ck *machine.CheckpointSpec) export {
		tracer := NewTracer(ckNodes, 0)
		mcfg := ckConfig(eng, false)
		mcfg.Obs = tracer
		mcfg.Checkpoint = ck
		run := app.run(mcfg)
		if run.Err != nil {
			t.Fatal(run.Err)
		}
		var tb, mb bytes.Buffer
		if err := tracer.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := run.Metrics().WritePrometheus(&mb); err != nil {
			t.Fatal(err)
		}
		return export{tb.Bytes(), mb.Bytes()}
	}

	base := app.run(ckConfig(Sequential(), false))
	at := base.Makespan / 2
	for _, eng := range []Engine{Sequential(), Parallel()} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			plain := exportRun(eng, nil)
			var snapBytes []byte
			ck := exportRun(eng, &machine.CheckpointSpec{At: at,
				Deliver: func(s *sim.Snapshot, err error) { snapBytes = s.Encode() }})
			if !bytes.Equal(plain.trace, ck.trace) || !bytes.Equal(plain.metrics, ck.metrics) {
				t.Fatal("checkpointed run's exports differ from plain run's")
			}
			snap, err := RestoreSnapshot(snapBytes)
			if err != nil {
				t.Fatal(err)
			}
			restored := exportRun(eng, &machine.CheckpointSpec{Verify: snap,
				Deliver: func(s *sim.Snapshot, err error) {
					if err != nil {
						t.Errorf("verify diverged: %v", err)
					}
				}})
			if !bytes.Equal(plain.trace, restored.trace) {
				t.Error("restored run's trace differs from plain run's")
			}
			if !bytes.Equal(plain.metrics, restored.metrics) {
				t.Error("restored run's metrics differ from plain run's")
			}
		})
	}
}

// TestCrashDeterminism is the crash-schedule analogue of the fault
// determinism tests: a run with permanent crashes must be bit-identical
// across engines and repeats, complete with typed partial-result errors and
// probe counters.
func TestCrashDeterminism(t *testing.T) {
	app := ckApps()[2]
	runs := make([]stats.Run, 0, 3)
	for _, eng := range []Engine{Sequential(), Sequential(), Parallel()} {
		runs = append(runs, app.run(ckConfig(eng, true)))
	}
	for i := 1; i < len(runs); i++ {
		if diff := runs[0].Diff(runs[i]); diff != "" {
			t.Fatalf("crash run %d diverges: %s", i, diff)
		}
	}
	r := runs[0]
	if r.Faults.Crashes == 0 {
		t.Fatalf("no crashes at rate %v: %+v", ckFaults().CrashRate, r.Faults)
	}
	if !errors.Is(r.Err, ErrCrashed) {
		t.Fatalf("error chain %v lacks ErrCrashed", r.Err)
	}
	var ce *machine.CrashError
	if !errors.As(r.Err, &ce) {
		t.Fatalf("error chain %v lacks a *CrashError", r.Err)
	}
	if fmt.Sprint(ce) == "" || ce.At <= 0 {
		t.Fatalf("malformed crash error %+v", ce)
	}
}
