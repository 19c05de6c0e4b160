package core

import (
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// obj is a test object with an id and a modeled size.
type obj struct {
	id   int
	size int
}

func (o obj) ByteSize() int {
	if o.size == 0 {
		return 32
	}
	return o.size
}

// world is a test fixture: an n-node machine with a prepared object space.
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

// run executes main on node 0 (with its runtime) while all nodes serve, and
// returns node 0's runtime stats.
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

func TestLocalSpawnRunsDirect(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(0, obj{id: 1})
	var got int
	st, _ := w.run(Default(), func(rt *RT) {
		rt.Spawn(p, func(o gptr.Object) { got = o.(obj).id })
		rt.Drain()
	})
	if got != 1 {
		t.Fatalf("thread saw id %d", got)
	}
	if st.LocalHits != 1 || st.Fetches != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestReplicatedSpawnIsLocal(t *testing.T) {
	w := newWorld(4)
	p := w.space.AllocReplicated(obj{id: 9})
	var got int
	st, _ := w.run(Default(), func(rt *RT) {
		rt.Spawn(p, func(o gptr.Object) { got = o.(obj).id })
		rt.Drain()
	})
	if got != 9 {
		t.Fatalf("thread saw id %d", got)
	}
	if st.LocalHits != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.ReqMsgs != 0 || st.Fetches != 0 {
		t.Errorf("replicated access issued fetch traffic: %+v", st)
	}
}

func TestRemoteSpawnFetches(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 7})
	var got int
	st, _ := w.run(Default(), func(rt *RT) {
		rt.Spawn(p, func(o gptr.Object) { got = o.(obj).id })
		rt.Drain()
	})
	if got != 7 {
		t.Fatalf("thread saw id %d", got)
	}
	if st.Fetches != 1 || st.ReqMsgs != 1 || st.ThreadsRun != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSharedPointerSingleFetch(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 3})
	count := 0
	st, _ := w.run(Default(), func(rt *RT) {
		for i := 0; i < 5; i++ {
			rt.Spawn(p, func(o gptr.Object) { count++ })
		}
		rt.Drain()
	})
	if count != 5 {
		t.Fatalf("ran %d threads", count)
	}
	if st.Fetches != 1 {
		t.Errorf("fetches = %d, want 1 (shared pointer)", st.Fetches)
	}
	if st.Reuses != 4 {
		t.Errorf("reuses = %d, want 4", st.Reuses)
	}
}

func TestArrivedCopyReused(t *testing.T) {
	// A spawn issued *after* the object arrived must hit the renamed copy.
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 3})
	order := []int{}
	st, _ := w.run(Default(), func(rt *RT) {
		rt.Spawn(p, func(o gptr.Object) {
			order = append(order, 1)
			// This nested spawn happens when p's copy is in D.
			rt.Spawn(p, func(o gptr.Object) { order = append(order, 2) })
		})
		rt.Drain()
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if st.Fetches != 1 || st.Reuses != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestAggregationBatchesRequests(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	cfg := Default()
	cfg.AggLimit = 8
	ran := 0
	st, _ := w.run(cfg, func(rt *RT) {
		for _, p := range ptrs {
			rt.Spawn(p, func(o gptr.Object) { ran++ })
		}
		rt.Drain()
	})
	if ran != 8 {
		t.Fatalf("ran %d", ran)
	}
	if st.Fetches != 8 || st.ReqMsgs != 1 {
		t.Errorf("want 8 fetches in 1 message, got %+v", st)
	}
}

func TestNoAggregationSendsPerPointer(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	cfg := Default()
	cfg.AggLimit = 1
	st, _ := w.run(cfg, func(rt *RT) {
		for _, p := range ptrs {
			rt.Spawn(p, func(o gptr.Object) {})
		}
		rt.Drain()
	})
	if st.ReqMsgs != 8 {
		t.Errorf("ReqMsgs = %d, want 8", st.ReqMsgs)
	}
}

func TestTilingGroupsSameObjectThreads(t *testing.T) {
	// Interleaved spawns on two remote objects must execute grouped by
	// object, not in spawn order.
	w := newWorld(2)
	a := w.space.Alloc(1, obj{id: 100})
	b := w.space.Alloc(1, obj{id: 200})
	var order []int
	_, _ = w.run(Default(), func(rt *RT) {
		for i := 0; i < 3; i++ {
			rt.Spawn(a, func(o gptr.Object) { order = append(order, o.(obj).id) })
			rt.Spawn(b, func(o gptr.Object) { order = append(order, o.(obj).id) })
		}
		rt.Drain()
	})
	want := []int{100, 100, 100, 200, 200, 200}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want grouped %v", order, want)
		}
	}
}

func TestForAllRunsEverything(t *testing.T) {
	w := newWorld(4)
	var ptrs []gptr.Ptr
	for i := 0; i < 20; i++ {
		ptrs = append(ptrs, w.space.Alloc(i%4, obj{id: i}))
	}
	cfg := Default()
	cfg.Strip = 3
	seen := make([]bool, 20)
	_, _ = w.run(cfg, func(rt *RT) {
		rt.ForAll(len(ptrs), func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { seen[o.(obj).id] = true })
		})
	})
	for i, s := range seen {
		if !s {
			t.Errorf("iteration %d never ran", i)
		}
	}
}

func TestStripBoundaryDropsCopies(t *testing.T) {
	// The same remote pointer used in two different strips must be fetched
	// twice: renamed copies do not survive strip boundaries.
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 1})
	cfg := Default()
	cfg.Strip = 1
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(2, func(i int) {
			rt.Spawn(p, func(o gptr.Object) {})
		})
	})
	if st.Fetches != 2 {
		t.Errorf("fetches = %d, want 2 (refetch across strips)", st.Fetches)
	}
}

func TestWithinStripReuse(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 1})
	cfg := Default()
	cfg.Strip = 10
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(10, func(i int) {
			rt.Spawn(p, func(o gptr.Object) {})
		})
	})
	if st.Fetches != 1 {
		t.Errorf("fetches = %d, want 1 (reuse within strip)", st.Fetches)
	}
	if st.Reuses != 9 {
		t.Errorf("reuses = %d, want 9", st.Reuses)
	}
}

func TestNestedSpawnTree(t *testing.T) {
	// A thread on a parent spawns threads on children, like a tree
	// traversal. Build a 3-level binary tree owned by node 1.
	w := newWorld(2)
	type cell struct {
		obj
		kids []gptr.Ptr
	}
	var mk func(depth int) gptr.Ptr
	id := 0
	var leaves []int
	mk = func(depth int) gptr.Ptr {
		c := cell{obj: obj{id: id}}
		id++
		if depth > 0 {
			c.kids = []gptr.Ptr{mk(depth - 1), mk(depth - 1)}
		} else {
			leaves = append(leaves, c.id)
		}
		return w.space.Alloc(1, c)
	}
	root := mk(3)
	var visited []int
	_, _ = w.run(Default(), func(rt *RT) {
		var walk Thread
		walk = func(o gptr.Object) {
			c := o.(cell)
			if len(c.kids) == 0 {
				visited = append(visited, c.id)
				return
			}
			for _, k := range c.kids {
				rt.Spawn(k, walk)
			}
		}
		rt.Spawn(root, walk)
		rt.Drain()
	})
	if len(visited) != len(leaves) {
		t.Fatalf("visited %d leaves, want %d", len(visited), len(leaves))
	}
	seen := map[int]bool{}
	for _, v := range visited {
		seen[v] = true
	}
	for _, l := range leaves {
		if !seen[l] {
			t.Errorf("leaf %d not visited", l)
		}
	}
}

func TestPipeliningOffStillCorrect(t *testing.T) {
	w := newWorld(4)
	var ptrs []gptr.Ptr
	for i := 0; i < 30; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%3, obj{id: i}))
	}
	for _, pipeline := range []bool{true, false} {
		cfg := Default()
		cfg.Pipeline = pipeline
		ran := 0
		st, _ := w.run(cfg, func(rt *RT) {
			for _, p := range ptrs {
				rt.Spawn(p, func(o gptr.Object) { ran++ })
			}
			rt.Drain()
		})
		if ran != 30 {
			t.Errorf("pipeline=%v: ran %d", pipeline, ran)
		}
		if st.Fetches != 30 {
			t.Errorf("pipeline=%v: fetches %d", pipeline, st.Fetches)
		}
	}
}

func TestPipeliningReducesIdle(t *testing.T) {
	// With a high-latency network and plenty of local work to overlap,
	// eager flushing must reduce the requester's idle time versus deferred
	// flushing.
	idle := map[bool]int64{}
	for _, pipeline := range []bool{true, false} {
		net := fm.NewNet()
		proto := RegisterProto(net)
		space := gptr.NewSpace(2)
		var remote, local []gptr.Ptr
		for i := 0; i < 64; i++ {
			remote = append(remote, space.Alloc(1, obj{id: i, size: 256}))
			local = append(local, space.Alloc(0, obj{id: 1000 + i}))
		}
		mcfg := machine.DefaultT3D(2)
		mcfg.LatencyBase = 100000 // make latency worth hiding
		cfg := Default()
		cfg.Pipeline = pipeline
		cfg.AggLimit = 4
		m := machine.New(mcfg)
		defer m.Close()
		m.Run(func(nd *machine.Node) {
			ep := fm.NewEP(net, nd)
			rt := New(proto, ep, space, cfg, nil)
			if nd.ID() == 0 {
				for i := range remote {
					rt.Spawn(remote[i], func(o gptr.Object) {})
					rt.Spawn(local[i], func(o gptr.Object) {
						nd.Charge(0, 20000) // local work to overlap with
					})
				}
				rt.Drain()
			}
			ep.Barrier()
		})
		c := m.Nodes()[0].Charges()
		idle[pipeline] = int64(c[sim.Idle] + c[sim.FetchStall])
	}
	if idle[true] >= idle[false] {
		t.Errorf("pipelining did not reduce idle: on=%d off=%d", idle[true], idle[false])
	}
}

func TestCrossRequests(t *testing.T) {
	// Both nodes request from each other simultaneously; the runtimes must
	// serve while draining (no deadlock) and complete all threads.
	n := 2
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(n)
	var ptrs [2][]gptr.Ptr
	for node := 0; node < n; node++ {
		for i := 0; i < 10; i++ {
			ptrs[node] = append(ptrs[node], space.Alloc(node, obj{id: node*100 + i}))
		}
	}
	ran := [2]int{}
	m := machine.New(machine.DefaultT3D(n))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		me := nd.ID()
		other := 1 - me
		for _, p := range ptrs[other] {
			rt.Spawn(p, func(o gptr.Object) { ran[me]++ })
		}
		rt.Drain()
		ep.Barrier()
	})
	if ran[0] != 10 || ran[1] != 10 {
		t.Fatalf("ran = %v", ran)
	}
}

func TestPeakOutstandingBoundedByStrip(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 100; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	for _, strip := range []int{5, 20, 100} {
		cfg := Default()
		cfg.Strip = strip
		st, _ := w.run(cfg, func(rt *RT) {
			rt.ForAll(len(ptrs), func(i int) {
				rt.Spawn(ptrs[i], func(o gptr.Object) {})
			})
		})
		if st.PeakOutstanding > int64(strip) {
			t.Errorf("strip %d: peak outstanding %d exceeds strip", strip, st.PeakOutstanding)
		}
	}
}

func TestSpawnNilPanics(t *testing.T) {
	w := newWorld(1)
	_, _ = w.run(Default(), func(rt *RT) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on nil spawn")
			}
		}()
		rt.Spawn(gptr.Nil, func(o gptr.Object) {})
	})
}

func TestDeterministicStats(t *testing.T) {
	build := func() (*world, []gptr.Ptr) {
		w := newWorld(4)
		var ptrs []gptr.Ptr
		for i := 0; i < 50; i++ {
			ptrs = append(ptrs, w.space.Alloc((i*7)%4, obj{id: i}))
		}
		return w, ptrs
	}
	run := func() (stats.RTStats, int64) {
		w, ptrs := build()
		cfg := Default()
		cfg.Strip = 8
		st, m := w.run(cfg, func(rt *RT) {
			rt.ForAll(len(ptrs), func(i int) {
				rt.Spawn(ptrs[i], func(o gptr.Object) {})
			})
		})
		return st, m.Nodes()[0].MsgsSent
	}
	st1, m1 := run()
	st2, m2 := run()
	if st1 != st2 || m1 != m2 {
		t.Fatalf("nondeterministic: %+v/%d vs %+v/%d", st1, m1, st2, m2)
	}
}

func TestUnlimitedAggLimit(t *testing.T) {
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 40; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	cfg := Default()
	cfg.AggLimit = 0 // unlimited
	cfg.Pipeline = false
	st, _ := w.run(cfg, func(rt *RT) {
		for _, p := range ptrs {
			rt.Spawn(p, func(o gptr.Object) {})
		}
		rt.Drain()
	})
	if st.ReqMsgs != 1 {
		t.Errorf("ReqMsgs = %d, want 1 (single fully aggregated message)", st.ReqMsgs)
	}
}

func TestLIFODisciplineCompletesAndBoundsQueue(t *testing.T) {
	// Depth-first (LIFO) scheduling must still run everything, and on a
	// deep spawn chain it keeps the ready queue shallower than FIFO.
	type chain struct {
		obj
		next gptr.Ptr
	}
	for _, lifo := range []bool{false, true} {
		w := newWorld(2)
		// Build 8 chains of depth 16, all local to node 0, so scheduling
		// order alone determines queue depth.
		var heads []gptr.Ptr
		for c := 0; c < 8; c++ {
			next := gptr.Nil
			for d := 0; d < 16; d++ {
				next = w.space.Alloc(0, chain{obj: obj{id: c*100 + d}, next: next})
			}
			heads = append(heads, next)
		}
		cfg := Default()
		cfg.LIFO = lifo
		ran := 0
		st, _ := w.run(cfg, func(rt *RT) {
			var walk Thread
			walk = func(o gptr.Object) {
				ran++
				c := o.(chain)
				if !c.next.IsNil() {
					rt.Spawn(c.next, walk)
				}
			}
			for _, h := range heads {
				rt.Spawn(h, walk)
			}
			rt.Drain()
		})
		if ran != 8*16 {
			t.Fatalf("lifo=%v: ran %d threads, want 128", lifo, ran)
		}
		_ = st
	}
}

func TestLIFOAndFIFOSameWork(t *testing.T) {
	w := newWorld(4)
	var ptrs []gptr.Ptr
	for i := 0; i < 60; i++ {
		ptrs = append(ptrs, w.space.Alloc(i%4, obj{id: i}))
	}
	results := map[bool]int64{}
	for _, lifo := range []bool{false, true} {
		cfg := Default()
		cfg.LIFO = lifo
		st, _ := w.run(cfg, func(rt *RT) {
			rt.ForAll(len(ptrs), func(i int) {
				rt.Spawn(ptrs[i], func(o gptr.Object) {})
			})
		})
		results[lifo] = st.ThreadsRun
	}
	if results[true] != results[false] {
		t.Fatalf("LIFO ran %d threads, FIFO %d", results[true], results[false])
	}
}
