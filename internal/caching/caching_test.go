package caching

import (
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

type obj struct{ id int }

func (o obj) ByteSize() int { return 32 }

type world struct {
	net   *fm.Net
	proto *Proto
	space *gptr.Space
	n     int
}

func newWorld(n int) *world {
	net := fm.NewNet()
	return &world{net: net, proto: RegisterProto(net), space: gptr.NewSpace(n), n: n}
}

func (w *world) run(cfg Config, main func(rt *RT)) (stats.RTStats, *machine.Machine) {
	m := machine.New(machine.DefaultT3D(w.n))
	defer m.Close()
	var st stats.RTStats
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(w.net, nd)
		rt := New(w.proto, ep, w.space, cfg, nil)
		if nd.ID() == 0 {
			main(rt)
			st = rt.Stats()
		}
		ep.Barrier()
	})
	return st, m
}

func TestRemoteFetchAndRun(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 5})
	var got int
	st, _ := w.run(Default(), func(rt *RT) {
		rt.Spawn(p, func(o gptr.Object) { got = o.(obj).id })
		rt.Drain()
	})
	if got != 5 {
		t.Fatalf("got %d", got)
	}
	if st.Fetches != 1 || st.ReqMsgs != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCachePersistsAcrossDrains(t *testing.T) {
	// Unlike strip-mined DPA, a cached object is never refetched within a
	// phase — this is the caching runtime's bandwidth advantage.
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 5})
	st, _ := w.run(Default(), func(rt *RT) {
		for round := 0; round < 5; round++ {
			rt.Spawn(p, func(o gptr.Object) {})
			rt.Drain()
		}
	})
	if st.Fetches != 1 {
		t.Errorf("fetches = %d, want 1 (cache persists)", st.Fetches)
	}
	if st.Reuses != 4 {
		t.Errorf("reuses = %d, want 4", st.Reuses)
	}
}

func TestRemoteAccessesPayHashTwice(t *testing.T) {
	// Remote accesses pay one probe at the access site and one at thread
	// execution (pointer re-translation); local accesses take the cheap
	// address-check fast path and pay none.
	w := newWorld(2)
	local := w.space.Alloc(0, obj{id: 1})
	remote := w.space.Alloc(1, obj{id: 2})
	_, m := w.run(Default(), func(rt *RT) {
		for i := 0; i < 10; i++ {
			rt.Spawn(local, func(o gptr.Object) {})
			rt.Spawn(remote, func(o gptr.Object) {})
		}
		rt.Drain()
	})
	hash := m.Nodes()[0].Charges()[sim.HashOv]
	want := sim.Time(2*10) * machine.DefaultT3D(2).HashCost
	if hash != want {
		t.Errorf("hash cycles = %d, want %d (two probes per remote access)", hash, want)
	}
}

func TestNoAggregation(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 12; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	st, _ := w.run(Default(), func(rt *RT) {
		for _, p := range ptrs {
			rt.Spawn(p, func(o gptr.Object) {})
		}
		rt.Drain()
	})
	if st.ReqMsgs != 12 {
		t.Errorf("ReqMsgs = %d, want 12 (one per object)", st.ReqMsgs)
	}
}

func TestPendingMissesShareOneFetch(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 1})
	count := 0
	st, _ := w.run(Default(), func(rt *RT) {
		for i := 0; i < 4; i++ {
			rt.Spawn(p, func(o gptr.Object) { count++ })
		}
		rt.Drain()
	})
	if count != 4 {
		t.Fatalf("ran %d", count)
	}
	if st.Fetches != 1 {
		t.Errorf("fetches = %d, want 1", st.Fetches)
	}
}

func TestForAllCompletes(t *testing.T) {
	w := newWorld(4)
	var ptrs []gptr.Ptr
	for i := 0; i < 40; i++ {
		ptrs = append(ptrs, w.space.Alloc(i%4, obj{id: i}))
	}
	seen := make([]bool, 40)
	_, _ = w.run(Default(), func(rt *RT) {
		rt.ForAll(len(ptrs), func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { seen[o.(obj).id] = true })
		})
	})
	for i, s := range seen {
		if !s {
			t.Errorf("iteration %d missing", i)
		}
	}
}

func TestNestedSpawns(t *testing.T) {
	w := newWorld(2)
	leaf := w.space.Alloc(1, obj{id: 99})
	mid := w.space.Alloc(1, obj{id: 50})
	var order []int
	_, _ = w.run(Default(), func(rt *RT) {
		rt.Spawn(mid, func(o gptr.Object) {
			order = append(order, o.(obj).id)
			rt.Spawn(leaf, func(o gptr.Object) { order = append(order, o.(obj).id) })
		})
		rt.Drain()
	})
	if len(order) != 2 || order[0] != 50 || order[1] != 99 {
		t.Fatalf("order = %v", order)
	}
}

func TestSpawnNilPanics(t *testing.T) {
	w := newWorld(1)
	_, _ = w.run(Default(), func(rt *RT) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		rt.Spawn(gptr.Nil, func(o gptr.Object) {})
	})
}

func TestBoundedCacheEvicts(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 10; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	cfg := Default()
	cfg.Capacity = 4
	st, _ := w.run(cfg, func(rt *RT) {
		// Two passes over 10 objects with a 4-object cache: the second
		// pass must refetch (capacity misses).
		for pass := 0; pass < 2; pass++ {
			for _, p := range ptrs {
				rt.Spawn(p, func(o gptr.Object) {})
			}
			rt.Drain()
		}
	})
	if st.Fetches <= 10 {
		t.Fatalf("fetches = %d, want > 10 (capacity misses)", st.Fetches)
	}
	// Pass 1 fetches all 10; FIFO eviction leaves {6..9} resident, so pass
	// 2 refetches 0..5 (the probes for 6..9 happen before pass-2 inserts
	// evict them).
	if st.Fetches != 16 {
		t.Fatalf("fetches = %d, want 16", st.Fetches)
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 10; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	queued := -1
	st, _ := w.run(Default(), func(rt *RT) {
		for pass := 0; pass < 3; pass++ {
			for _, p := range ptrs {
				rt.Spawn(p, func(o gptr.Object) {})
			}
			rt.Drain()
		}
		queued = len(rt.evictQueue)
	})
	if st.Fetches != 10 {
		t.Fatalf("fetches = %d, want 10", st.Fetches)
	}
	if queued != 0 {
		t.Fatalf("unbounded cache queued %d pointers for eviction, want 0", queued)
	}
}
