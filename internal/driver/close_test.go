package driver_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/leakguard"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// em3dHalf runs half-step k of an EM3D iteration on g (E for even k, H for
// odd) through store: every node spawns one thread per dependency of the
// graph nodes it owns. With boom set, node 0 panics with "boom" first.
func em3dHalf(mcfg machine.Config, g *em3d.Graph, k int, store *driver.PriorStore, boom bool) error {
	ns, ptrs, kind := g.E, g.EPtr, "E"
	if k%2 == 1 {
		ns, ptrs, kind = g.H, g.HPtr, "H"
	}
	run := driver.RunPhase(mcfg, g.Space, driver.DPASpec(8), func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
		if boom && nd.ID() == 0 {
			panic("boom")
		}
		for i, p := range ptrs {
			if int(p.Node) != nd.ID() {
				continue
			}
			for _, dep := range ns[i].Deps {
				rt.Spawn(dep, func(gptr.Object) { nd.Charge(sim.Compute, 90) })
			}
		}
		rt.Drain()
	}, driver.WithPriors(store, kind))
	return run.Err
}

// atMost fails the test unless the goroutine count comes down to want.
func atMost(t *testing.T, what string, want int) {
	t.Helper()
	if got := leakguard.Settle(want); got > want {
		t.Fatalf("%s: %d goroutines, want at most %d", what, got, want)
	}
}

// TestStoreCloseLeavesNoGoroutines pins the end of a run: a node's process
// lives across the phases of its store's machine, one goroutine per node
// however many phases run, and the store's Close returns every one of them,
// under both engines. A phase that panics or degrades hands the store a new
// machine for the next phase, and only a process the panic left inside its
// body stays parked: under the parallel engine, every peer that entered its
// body in node 0's window; under the sequential engine, none, since node 0
// runs first and Close ends the peers that never started.
func TestStoreCloseLeavesNoGoroutines(t *testing.T) {
	const nodes = 8
	prm := em3d.DefaultParams(64)
	crashy := machine.FaultConfig{FaultParams: sim.FaultParams{Seed: 3, CrashRate: 0.4, CrashAt: 1000}}
	for _, c := range []struct {
		eng           driver.Engine
		panicLeftover int
	}{{driver.Sequential(), 0}, {driver.Parallel(driver.Workers(2)), nodes - 1}} {
		mcfg := machine.DefaultT3D(nodes)
		mcfg.Engine, mcfg.EngineTuning = c.eng.Kind(), c.eng.Tuning()
		t.Run(c.eng.String()+"/clean", func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := em3d.Build(prm, nodes)
			store := driver.NewPriorStore()
			for k := 0; k < 4; k++ {
				if err := em3dHalf(mcfg, g, k, store, false); err != nil {
					t.Fatal(err)
				}
				atMost(t, fmt.Sprintf("after phase %d", k), base+nodes)
			}
			store.Close()
			atMost(t, "after Close", base)
		})
		t.Run(c.eng.String()+"/panic", func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := em3d.Build(prm, nodes)
			store := driver.NewPriorStore()
			if err := em3dHalf(mcfg, g, 0, store, false); err != nil {
				t.Fatal(err)
			}
			r := func() (r any) {
				defer func() { r = recover() }()
				em3dHalf(mcfg, g, 1, store, true)
				return nil
			}()
			if r != "boom" {
				t.Fatalf("the phase panicked with %v, want boom", r)
			}
			atMost(t, "after the panic", base+c.panicLeftover)
			if err := em3dHalf(mcfg, g, 1, store, false); err != nil {
				t.Fatal(err)
			}
			store.Close()
			atMost(t, "after Close", base+c.panicLeftover)
		})
		t.Run(c.eng.String()+"/degraded", func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := em3d.Build(prm, nodes)
			store := driver.NewPriorStore()
			lossy := mcfg
			lossy.Faults = crashy
			if err := em3dHalf(lossy, g, 0, store, false); !errors.Is(err, machine.ErrCrashed) {
				t.Fatalf("degraded phase: err %v, want %v", err, machine.ErrCrashed)
			}
			atMost(t, "after the degraded phase", base)
			if err := em3dHalf(mcfg, g, 1, store, false); err != nil {
				t.Fatal(err)
			}
			store.Close()
			atMost(t, "after Close", base)
		})
	}
}
