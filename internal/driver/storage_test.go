package driver

import (
	"errors"
	"runtime"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// storageSpace places k objects round-robin over n nodes.
func storageSpace(n, k int) (*gptr.Space, []gptr.Ptr) {
	space := gptr.NewSpace(n)
	ptrs := make([]gptr.Ptr, k)
	for i := range ptrs {
		ptrs[i] = space.Alloc(i%n, thing{id: i})
	}
	return space, ptrs
}

// fetchAll is a phase body in which every node spawns a thread on every
// object, so every node fetches from every other; localOnly spawns only on
// the node's own objects, leaving the closing barrier as the only traffic.
func fetchAll(ptrs []gptr.Ptr, localOnly bool) func(rt Runtime, ep *fm.EP, nd *machine.Node) {
	return func(rt Runtime, ep *fm.EP, nd *machine.Node) {
		for _, p := range ptrs {
			if !localOnly || int(p.Node) == nd.ID() {
				rt.Spawn(p, func(gptr.Object) {})
			}
		}
		rt.Drain()
	}
}

// TestDegradedPhaseDropsRunStorage: a phase that deadlocks (loss beyond a
// one-retry budget) or crashes a node hands none of its storage on — a
// deadlock leaves coroutines parked on the machine's processes — so the next
// phase on the same store, under the same config, runs exactly as it would
// on a new store, under either engine.
func TestDegradedPhaseDropsRunStorage(t *testing.T) {
	const nodes = 4
	space, ptrs := storageSpace(nodes, 64)
	// Seed and rate chosen so the all-to-all phase deadlocks and the local
	// one, whose only traffic is the barrier, runs clean.
	lossy := machine.DefaultFaults(2, 0.2)
	lossy.RelMaxRetries = 1
	// The all-to-all phase runs about 30 k cycles under the reliability
	// layer, the local one about 9 k: only the first reaches the crash time.
	crashy := machine.FaultConfig{FaultParams: sim.FaultParams{Seed: 3, CrashRate: 0.5, CrashAt: 15000}}
	cases := []struct {
		name   string
		faults machine.FaultConfig
		want   error
	}{{"deadlock", lossy, sim.ErrDeadlock}, {"crash", crashy, machine.ErrCrashed}}
	for _, c := range cases {
		for _, eng := range []Engine{Sequential(), Parallel(Workers(2))} {
			mcfg := t3d(nodes, eng)
			mcfg.Faults = c.faults
			phase := func(store *PriorStore, localOnly bool) stats.Run {
				return RunPhase(mcfg, space, DPASpec(10), fetchAll(ptrs, localOnly), WithPriors(store, "k"))
			}
			store, fresh := NewPriorStore(), NewPriorStore()
			if run := phase(store, false); !errors.Is(run.Err, c.want) {
				t.Fatalf("%s/%v: degraded phase err = %v, want %v", c.name, eng, run.Err, c.want)
			}
			if store.mach != nil || store.rts != nil {
				t.Fatalf("%s/%v: run storage survived a degraded phase", c.name, eng)
			}
			got := phase(store, true)
			want := phase(fresh, true)
			if got.Err != nil {
				t.Fatalf("%s/%v: the phase after the degraded one is degraded too: %v", c.name, eng, got.Err)
			}
			if store.mach == nil {
				t.Fatalf("%s/%v: a clean phase left no machine for the next", c.name, eng)
			}
			if g, w := got.Table(1), want.Table(1); g != w {
				t.Fatalf("%s/%v: phase after a degraded one\n%s\nwant (new store)\n%s", c.name, eng, g, w)
			}
			store.Close()
			fresh.Close()
		}
	}
}

// TestRecycledEmptyPhaseAllocations: once a store's first phase has run, an
// empty phase on it allocates next to nothing per node, under every runtime:
// each process keeps its coroutine and its bound body, and none of the
// per-node slabs (message buffers, data-cache index, endpoint, runtime) a
// new machine builds is rebuilt. What is left is the phase's own handful of
// objects, shared by all nodes. Measured at 64 nodes: 0.1 objects and about
// 180 B per node recycled, against 21 objects and 6.4 KB per node on a new
// store.
func TestRecycledEmptyPhaseAllocations(t *testing.T) {
	const nodes = 64
	space := gptr.NewSpace(nodes)
	empty := func(Runtime, *fm.EP, *machine.Node) {}
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		t.Run(spec.String(), func(t *testing.T) {
			store := NewPriorStore()
			defer store.Close()
			phase := func() { RunPhase(machine.DefaultT3D(nodes), space, spec, empty, WithPriors(store, "k")) }
			phase()
			perNode := testing.AllocsPerRun(5, phase) / nodes
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			phase()
			runtime.ReadMemStats(&after)
			bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / nodes
			t.Logf("recycled empty phase: %.1f allocations, %.0f bytes per node", perNode, bytesPerNode)
			if perNode > 2 {
				t.Errorf("recycled empty phase allocates %.1f objects per node, want at most 2", perNode)
			}
			if bytesPerNode > 512 {
				t.Errorf("recycled empty phase allocates %.0f bytes per node, want at most 512", bytesPerNode)
			}
		})
	}
}

// TestThreadsAtHandAllocateNothing: under every runtime a template thread
// whose object is at hand — the node's own, or a remote one already fetched
// (a cached copy, an arrived renamed copy) — is a value, spawned and drained
// without a host allocation. Node 0 spawns and drains n such threads one by
// one; once a phase has warmed the store, a phase of 4096 must allocate what
// a phase of 64 does. The blocking runtime keeps nothing between accesses,
// so it has no reuse row.
func TestThreadsAtHandAllocateNothing(t *testing.T) {
	space := gptr.NewSpace(2)
	local, remote := space.Alloc(0, thing{id: 1}), space.Alloc(1, thing{id: 2})
	for _, spec := range []Spec{DPASpec(10), CachingSpec(), BlockingSpec()} {
		for _, c := range []struct {
			name string
			p    gptr.Ptr
		}{{"local", local}, {"reuse", remote}} {
			if spec.Kind == Blocking && c.name == "reuse" {
				continue
			}
			t.Run(spec.String()+"/"+c.name, func(t *testing.T) {
				store := NewPriorStore()
				defer store.Close()
				allocs := func(n int) float64 {
					ran := 0
					phase := func() {
						ran = 0
						RunPhase(machine.DefaultT3D(2), space, spec, func(rt Runtime, _ *fm.EP, nd *machine.Node) {
							if nd.ID() != 0 {
								return
							}
							id := rt.Template(func(gptr.Object, uint64, uint64) { ran++ })
							for i := 0; i < n; i++ {
								rt.SpawnT(c.p, id, uint64(i), 0)
								rt.Drain()
							}
						}, WithPriors(store, "k"))
					}
					phase()
					a := testing.AllocsPerRun(5, phase)
					if ran != n {
						t.Fatalf("%d of %d threads ran", ran, n)
					}
					return a
				}
				small, large := allocs(64), allocs(4096)
				if per := (large - small) / (4096 - 64); per != 0 {
					t.Errorf("a phase of 4096 threads allocates %.0f objects, one of 64 allocates %.0f: %.3f per thread, want 0",
						large, small, per)
				}
			})
		}
	}
}

// TestFetchedThreadAllocations pins what a thread whose object must be
// fetched costs the host under each runtime, once a phase has warmed the
// store: node 0 spawns n threads on n distinct objects of node 1 and drains
// them, and a phase of 4096 may allocate at most per objects per thread more
// than a phase of 64. DPA's records and waiters are recycled values (0). The
// comparators send one boxed request and one boxed reply per object (2,
// which sim.FingerprintPayload digests by type name); the caching runtime's
// waiter lists are recycled too, so it pays nothing more.
func TestFetchedThreadAllocations(t *testing.T) {
	const large = 4096
	space := gptr.NewSpace(2)
	remote := make([]gptr.Ptr, large)
	for i := range remote {
		remote[i] = space.Alloc(1, thing{id: i})
	}
	for _, c := range []struct {
		spec Spec
		per  float64
	}{{DPASpec(10), 0}, {CachingSpec(), 2.03}, {BlockingSpec(), 2.01}} {
		t.Run(c.spec.String(), func(t *testing.T) {
			store := NewPriorStore()
			defer store.Close()
			allocs := func(n int) float64 {
				ran := 0
				phase := func() {
					ran = 0
					RunPhase(machine.DefaultT3D(2), space, c.spec, func(rt Runtime, _ *fm.EP, nd *machine.Node) {
						if nd.ID() != 0 {
							return
						}
						id := rt.Template(func(gptr.Object, uint64, uint64) { ran++ })
						rt.ForAll(n, func(i int) { rt.SpawnT(remote[i], id, uint64(i), 0) })
					}, WithPriors(store, "k"))
				}
				phase()
				a := testing.AllocsPerRun(5, phase)
				if ran != n {
					t.Fatalf("%d of %d threads ran", ran, n)
				}
				return a
			}
			small, big := allocs(64), allocs(large)
			per := (big - small) / (large - 64)
			t.Logf("%.0f objects at 64 threads, %.0f at %d: %.3f per fetched thread", small, big, large, per)
			if per > c.per {
				t.Errorf("%.3f objects per fetched thread, want at most %.2f", per, c.per)
			}
		})
	}
}
