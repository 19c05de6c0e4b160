package dpa

// Graph-workload equivalence tests: the graph-analytics family (BFS,
// PageRank, connected components — DESIGN.md §14) must obey the same
// determinism contract as the paper's applications:
//
//  1. Bit-identical statistics and results across the sequential and
//     parallel engines, across repeats, fault-free and under seeded
//     loss and loss+crash schedules.
//  2. A mid-run checkpoint captures, round-trips, and restore-verifies on
//     both engines, with byte-identical snapshots.
//  3. With the cross-phase prior on, refetches are exactly zero on every
//     graph app.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

const geNodes = 4

// geParams is the shared test instance: small enough that the full
// app × fault × engine matrix stays fast, connected enough that
// every app does real multi-phase work.
func geParams() graph.Params {
	prm := graph.DefaultParams(224)
	prm.Degree = 6
	return prm
}

// geApp is one graph application under one spec, re-runnable from scratch;
// the second return is a canonical rendering of the program result (float
// ranks as exact bit patterns — engine equivalence is bit-identity, not
// tolerance).
type geApp struct {
	name string
	run  func(mcfg machine.Config, spec driver.Spec) (stats.Run, string)
}

func geApps() []geApp {
	prm := geParams()
	return []geApp{
		{"bfs", func(mcfg machine.Config, spec driver.Spec) (stats.Run, string) {
			run, dist := graph.RunBFS(mcfg, spec, prm, 0)
			return run, fmt.Sprint(dist)
		}},
		{"pagerank", func(mcfg machine.Config, spec driver.Spec) (stats.Run, string) {
			run, ranks := graph.RunPageRank(mcfg, spec, prm, 2)
			bits := make([]uint64, len(ranks))
			for i, r := range ranks {
				bits[i] = math.Float64bits(r)
			}
			return run, fmt.Sprint(bits)
		}},
		{"cc", func(mcfg machine.Config, spec driver.Spec) (stats.Run, string) {
			run, labels := graph.RunCC(mcfg, spec, prm)
			return run, fmt.Sprint(labels)
		}},
	}
}

// geFaults names the fault regimes of the matrix. Graph phases are short
// (one level/iteration each), so the crash lottery fires early in a phase.
func geFaults() []struct {
	name string
	cfg  machine.FaultConfig
} {
	lossy := machine.DefaultFaults(7, 0.05)
	crashy := machine.DefaultFaults(7, 0.03)
	crashy.CrashRate = 0.5
	crashy.CrashAt = 20_000
	return []struct {
		name string
		cfg  machine.FaultConfig
	}{
		{"fault-free", machine.FaultConfig{}},
		{"loss5", lossy},
		{"crashy", crashy},
	}
}

func geConfig(eng Engine, fc machine.FaultConfig) machine.Config {
	mcfg := withEngine(DefaultT3D(geNodes), eng)
	mcfg.Faults = fc
	return mcfg
}

// TestGraphEngineEquivalence sweeps app × fault regime, and inside each cell
// runs every engine configuration plus a sequential repeat: run tables and
// program results must be bit-identical throughout.
func TestGraphEngineEquivalence(t *testing.T) {
	spec := DPASpec(8)
	for _, app := range geApps() {
		app := app
		for _, fr := range geFaults() {
			fr := fr
			t.Run(app.name+"/"+fr.name, func(t *testing.T) {
				t.Run(spec.String(), func(t *testing.T) {
					engines := append(equivEngines(geNodes), Sequential()) // repeat the baseline
					runs := make([]stats.Run, len(engines))
					results := make([]string, len(engines))
					for i, eng := range engines {
						runs[i], results[i] = app.run(geConfig(eng, fr.cfg), spec)
					}
					for i := 1; i < len(engines); i++ {
						if results[i] != results[0] {
							t.Fatalf("results diverge between sequential and %v", engines[i])
						}
						if diff := runs[0].Diff(runs[i]); diff != "" {
							t.Fatalf("sequential vs %v stats diverge: %s", engines[i], diff)
						}
					}
					if fr.name == "crashy" {
						if runs[0].Faults.Crashes == 0 {
							t.Fatalf("crash schedule inactive: %+v", runs[0].Faults)
						}
						if !errors.Is(runs[0].Err, ErrCrashed) {
							t.Fatalf("crashy run error %v does not wrap ErrCrashed", runs[0].Err)
						}
					} else if fr.name == "fault-free" && runs[0].Err != nil {
						t.Fatalf("fault-free run degraded: %v", runs[0].Err)
					}
				})
			})
		}
	}
}

// TestGraphCheckpointEquivalence arms a mid-run checkpoint in each graph
// app and takes it through the whole contract: non-perturbation,
// encode/decode round trip, restore-by-replay verification, and
// byte-identical snapshots across engines.
func TestGraphCheckpointEquivalence(t *testing.T) {
	prm := geParams()
	apps := []ckApp{
		{"bfs-mdtable", func(mcfg machine.Config) stats.Run {
			run, _ := graph.RunBFS(mcfg, driver.DPASpec(8), prm, 0)
			return run
		}},
		{"pagerank-mdtable", func(mcfg machine.Config) stats.Run {
			run, _ := graph.RunPageRank(mcfg, driver.DPASpec(8), prm, 2)
			return run
		}},
		{"cc-mdtable", func(mcfg machine.Config) stats.Run {
			run, _ := graph.RunCC(mcfg, driver.DPASpec(8), prm)
			return run
		}},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			base := app.run(ckConfig(Sequential(), false))
			if base.Err != nil {
				t.Fatalf("fault-free run degraded: %v", base.Err)
			}
			at := base.Makespan / 2
			if at <= 0 {
				t.Fatalf("degenerate makespan %d", base.Makespan)
			}
			snaps := make(map[string][]byte)
			for _, eng := range []Engine{Sequential(), Parallel()} {
				eng := eng
				t.Run(eng.String(), func(t *testing.T) {
					snapBytes, ckRun := captureAt(t, app, eng, false, at)
					if diff := base.Diff(ckRun); diff != "" {
						t.Fatalf("checkpointed run diverges from plain run: %s", diff)
					}
					snaps[eng.String()] = snapBytes
					snap, err := RestoreSnapshot(snapBytes)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}
					if !bytes.Equal(snap.Encode(), snapBytes) {
						t.Fatal("snapshot re-encode is not byte-identical")
					}
					verr, vRun := verifyAgainst(t, app, eng, false, snap)
					if verr != nil {
						t.Fatalf("restored run diverged from snapshot: %v", verr)
					}
					if diff := base.Diff(vRun); diff != "" {
						t.Fatalf("restored continuation diverges from plain run: %s", diff)
					}
				})
			}
			if seq, par := snaps["sequential"], snaps["parallel"]; seq != nil && par != nil {
				if !bytes.Equal(seq, par) {
					t.Fatal("sequential and parallel snapshots differ")
				}
			}
		})
	}
}

// TestGraphPriorZeroRefetches pins the planner acceptance bar on the graph
// family: with the cross-phase prior on, every graph app must report exactly
// zero refetches, and the repeated phases must actually consult the prior.
func TestGraphPriorZeroRefetches(t *testing.T) {
	for _, app := range geApps() {
		app := app
		t.Run(app.name, func(t *testing.T) {
			run, _ := app.run(geConfig(Sequential(), machine.FaultConfig{}),
				DPASpec(16, WithShape()))
			if run.Err != nil {
				t.Fatalf("run degraded: %v", run.Err)
			}
			if run.RT.Refetches != 0 {
				t.Fatalf("prior run refetched %d times, want exactly 0", run.RT.Refetches)
			}
			if run.RT.PlanPriorHits == 0 {
				t.Fatalf("repeated phases never hit the prior: %+v", run.RT)
			}
		})
	}
}
