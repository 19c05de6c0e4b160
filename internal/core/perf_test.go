package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
)

// threadWorld is the real stack under the thread-record pins: a 2-node
// machine, fm endpoints, and one runtime per node built by New on that node's
// previous runtime, phase after phase. Both nodes run the same program, each spawning on
// its own objects or on the other's, so request and reply buffers flow both
// ways and the free lists balance as they do under an application. Nothing of
// the runtime is fabricated, so a pin here holds for the path the apps run.
type threadWorld struct {
	net    *fm.Net
	proto  *Proto
	space  *gptr.Space
	ptrs   [2][]gptr.Ptr // each node's objects
	rts    [2]*RT
	priors [2]PriorTable
}

func newThreadWorld(objs int) *threadWorld {
	net := fm.NewNet()
	w := &threadWorld{net: net, proto: RegisterProto(net), space: gptr.NewSpace(2)}
	for node := range w.ptrs {
		for i := 0; i < objs; i++ {
			w.ptrs[node] = append(w.ptrs[node], w.space.Alloc(node, obj{id: i}))
		}
	}
	return w
}

// threadKinds are the three ways a spawn can go: the object is the node's
// own, it is one remote object every thread shares (one fetch, then waiters
// and reuses), or every thread has a remote object of its own.
var threadKinds = []string{"local", "reuse", "fetch"}

func (w *threadWorld) target(me int, kind string, i int) gptr.Ptr {
	switch kind {
	case "local":
		return w.ptrs[me][i]
	case "reuse":
		return w.ptrs[1-me][0]
	}
	return w.ptrs[1-me][i%len(w.ptrs[1-me])]
}

// phase runs one phase in which each node spawns n threads of the given kind
// — templates, or with closure set the closure form sharing one fn — and
// returns the heap objects the host allocated for it, machine included, and
// how many threads ran. after, if set, runs on each node once its loop has
// drained.
func (w *threadWorld) phase(t testing.TB, cfg Config, kind string, n int, closure bool, after func(rt *RT)) (mallocs uint64, ran int) {
	t.Helper()
	mcfg := machine.DefaultT3D(2)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var count [2]int
	m := machine.New(mcfg)
	defer m.Close()
	_, err := m.Run(func(nd *machine.Node) {
		me := nd.ID()
		ep := fm.NewEP(w.net, nd)
		rt := New(w.proto, ep, w.space, cfg, w.rts[me])
		w.rts[me] = rt
		if cfg.Planned {
			rt.AttachPrior(&w.priors[me])
		}
		fn := func(gptr.Object) { count[me]++ }
		id := rt.Template(func(gptr.Object, uint64, uint64) { count[me]++ })
		rt.ForAll(n, func(i int) {
			if closure {
				rt.Spawn(w.target(me, kind, i), fn)
			} else {
				rt.SpawnT(w.target(me, kind, i), id, uint64(i), 0)
			}
		})
		if after != nil {
			after(rt)
		}
		if cfg.Planned {
			rt.FoldPrior()
		}
		ep.Barrier()
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	return ms1.Mallocs - ms0.Mallocs, count[0] + count[1]
}

// warmMallocs is what a phase of n threads per node allocates once an earlier
// phase of the same shape has warmed the runtimes. The Go runtime may allocate
// behind the measurement's back (a GC worker starting, say); the smallest of
// a few tries is the program's own figure.
func warmMallocs(t *testing.T, cfg Config, kind string, n int, closure bool) uint64 {
	t.Helper()
	w := newThreadWorld(n)
	w.phase(t, cfg, kind, n, closure, nil)
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		m, ran := w.phase(t, cfg, kind, n, closure, nil)
		if ran != 2*n {
			t.Fatalf("%s: %d of %d threads ran", kind, ran, 2*n)
		}
		least = min(least, m)
	}
	return least
}

// TestThreadsAllocateNothing pins the thread record: a spawned thread — ready
// at once, suspended on an in-flight fetch, or the first waiter of a fresh
// entry — is a value in a recycled slab, so on a warm runtime a phase of 4096
// threads allocates exactly what a phase of 64 does. The difference cancels
// everything a phase and its messages cost by themselves and leaves the
// per-thread term, which must be zero for templates and for the closure form
// alike (the closure is the caller's; its slot is recycled).
func TestThreadsAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"static", staticCfg()}, {"planned", shapedCfg()}} {
		for _, kind := range threadKinds {
			for _, closure := range []bool{false, true} {
				form := map[bool]string{false: "template", true: "closure"}[closure]
				t.Run(c.name+"/"+kind+"/"+form, func(t *testing.T) {
					small := warmMallocs(t, c.cfg, kind, 64, closure)
					large := warmMallocs(t, c.cfg, kind, 4096, closure)
					t.Logf("%d mallocs at 64 threads, %d at 4096", small, large)
					if small != large {
						t.Errorf("a phase of 4096 threads allocates %d objects, one of 64 allocates %d: %.3f per thread, want 0",
							large, small, (float64(large)-float64(small))/(4096-64))
					}
				})
			}
		}
	}
}

// wakePhase runs one planned phase on w — a world of ptrs objects per
// node — in which each node suspends waiters threads on every object of the
// other before any reply can land (one strip, so the whole batch is in flight
// together), and returns how many threads ran.
func wakePhase(t testing.TB, w *threadWorld, waiters int, after func(rt *RT)) int {
	cfg := staticCfg()
	cfg.Strip, cfg.Planned = 0, true
	_, ran := w.phase(t, cfg, "fetch", waiters*len(w.ptrs[0]), false, after)
	return ran
}

// TestWakeReplyWakesAllWaitersOnce: the reply path wakes every suspended
// thread of every pointer a reply carries exactly once, and a second delivery
// of the same — by then arrived — batch wakes nothing.
func TestWakeReplyWakesAllWaitersOnce(t *testing.T) {
	const ptrs, waiters = 16, 3
	ran := wakePhase(t, newThreadWorld(ptrs), waiters, func(rt *RT) {
		if rt.waiting != 0 || rt.ready.len() != 0 {
			t.Fatalf("after the drain: waiting=%d queued=%d, want 0 and 0", rt.waiting, rt.ready.len())
		}
		if st := rt.Stats(); st.Fetches != ptrs || st.Reuses != ptrs*(waiters-1) {
			t.Fatalf("%d fetches and %d reuses, want %d and %d: the threads did not share in-flight entries",
				st.Fetches, st.Reuses, ptrs, ptrs*(waiters-1))
		}
		var ptrs []gptr.Ptr
		for ei := int32(0); ei < rt.entries.n; ei++ {
			ptrs = append(ptrs, rt.entries.at(ei).p)
		}
		rt.wakeReply(int(ptrs[0].Node), ptrs)
		if rt.ready.len() != 0 || rt.waiting != 0 {
			t.Fatalf("duplicate delivery woke threads: queued=%d waiting=%d", rt.ready.len(), rt.waiting)
		}
	})
	if ran != 2*ptrs*waiters {
		t.Fatalf("%d threads ran, want %d", ran, 2*ptrs*waiters)
	}
}

func BenchmarkWakeReply(b *testing.B) {
	for _, c := range []struct{ ptrs, waiters int }{{16, 1}, {16, 4}, {128, 4}} {
		b.Run(fmt.Sprintf("%dptrs x %dwaiters", c.ptrs, c.waiters), func(b *testing.B) {
			w := newThreadWorld(c.ptrs)
			wakePhase(b, w, c.waiters, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wakePhase(b, w, c.waiters, nil)
			}
		})
	}
}

// TestColdThreadStorageAllocatesPeakOnce pins what a cold phase pays for its
// thread peak. On fresh runtimes each node suspends n threads on one object
// of the other's — one fetch, n waiters — and the reply readies all n at once
// as one chain queued in place, so the threads stay in their waiter slots
// until they are next to run and the phase peaks at n waiters alone; n local
// threads peak at n ready entries. Storage that grows without copying allocates each
// element once: a slab's capacity goes 32, 96, 224, 480, 992, 2,016, 4,064
// and the ready queue's 64, 128, 256, ..., 4,096, so n fills a slab's seventh
// segment exactly and sits just under the ready queue's seventh chunk of
// blocks, and the phase allocates about the peak's records and no more.
// Append-style growth allocates several times the peak, a doubling ring about
// twice, and a woken thread copied into the queue a ready entry more. What
// the phase allocates beyond a one-thread phase must stay within the peak's
// records per node and a quarter more; in planned mode the quarter also holds
// the prior's affinity record, 4 bytes per top-level iteration.
func TestColdThreadStorageAllocatesPeakOnce(t *testing.T) {
	const n = 4064
	static := staticCfg()
	static.Strip = 0 // one strip: every thread is suspended or ready before any runs
	planned := static
	planned.Planned = true
	waiter, ready := unsafe.Sizeof(waiter{}), unsafe.Sizeof(readyEntry{})
	for _, c := range []struct {
		name   string
		cfg    Config
		kind   string
		record uintptr // bytes of storage per thread at the peak
	}{
		{"static", static, "reuse", waiter},
		{"planned", planned, "reuse", waiter},
		{"static/local", static, "local", ready},
	} {
		t.Run(c.name, func(t *testing.T) {
			// coldBytes is the least a cold phase of threads per node
			// allocates in a few tries, machine included.
			coldBytes := func(threads int) uint64 {
				least := ^uint64(0)
				for try := 0; try < 3; try++ {
					w := newThreadWorld(threads) // local threads run on objects of their own
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					_, ran := w.phase(t, c.cfg, c.kind, threads, false, nil)
					runtime.ReadMemStats(&m1)
					if ran != 2*threads {
						t.Fatalf("%d of %d threads ran", ran, 2*threads)
					}
					if st := w.rts[0].Stats(); st.PeakOutstanding != int64(threads) {
						t.Fatalf("peak of %d outstanding threads, want %d", st.PeakOutstanding, threads)
					}
					least = min(least, m1.TotalAlloc-m0.TotalAlloc)
				}
				return least
			}
			base, peak := coldBytes(1), coldBytes(n)
			bound := 2 * n * uint64(c.record) * 5 / 4 // two nodes
			t.Logf("cold phase of %d threads per node: %d bytes beyond a one-thread phase (bound %d)", n, peak-base, bound)
			if peak > base+bound {
				t.Errorf("a cold phase of %d threads per node allocates %d bytes beyond a one-thread phase, want at most %d (%.1f bytes per thread, bound %.1f)",
					n, peak-base, bound, float64(peak-base)/(2*n), float64(bound)/(2*n))
			}
		})
	}
}
