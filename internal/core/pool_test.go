package core

import (
	"math"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// TestFreeListCarriedOverPopsLikeFresh pins the property put's evict-oldest
// rule exists for: drive a free list that starts empty and one that starts
// with leftovers (a recycled runtime's) through the same puts and gets, past
// poolCap in both directions, and every get the fresh list serves from its
// pool is served the same element by the carried-over one. Where the fresh
// list is empty (it would allocate) the carried one may hand out a leftover;
// both are elements nothing in the current phase refers to.
func TestFreeListCarriedOverPopsLikeFresh(t *testing.T) {
	get := func(list []*fetchReq) ([]*fetchReq, *fetchReq) {
		if n := len(list); n > 0 {
			return list[:n-1], list[n-1]
		}
		return list, nil
	}
	var fresh, carried []*fetchReq
	leftover := make(map[*fetchReq]bool)
	for i := 0; i < poolCap-10; i++ {
		r := &fetchReq{}
		leftover[r] = true
		carried = put(carried, r)
	}
	seed := uint32(1)
	overflows, empties := 0, 0
	for step := 0; step < 20000; step++ {
		seed = seed*1664525 + 1013904223
		// Long runs of mostly puts, then of mostly gets, so both lists
		// overflow and the fresh one runs dry.
		putShare := uint32(90)
		if (step/300)%2 == 1 {
			putShare = 10
		}
		if (seed>>16)%100 < putShare {
			if len(fresh) == poolCap {
				overflows++
			}
			r := &fetchReq{}
			fresh, carried = put(fresh, r), put(carried, r)
			if len(fresh) > poolCap || len(carried) > poolCap {
				t.Fatalf("step %d: lists hold %d and %d, cap is %d", step, len(fresh), len(carried), poolCap)
			}
			continue
		}
		var f, c *fetchReq
		fresh, f = get(fresh)
		carried, c = get(carried)
		switch {
		case f != nil && f != c:
			t.Fatalf("step %d: fresh list popped %p, carried-over list popped %p", step, f, c)
		case f == nil && c != nil && !leftover[c]:
			t.Fatalf("step %d: fresh list was empty but the carried-over one popped an element of this phase", step)
		case f == nil:
			empties++
		}
	}
	if overflows == 0 || empties == 0 {
		t.Fatalf("the walk never left the easy middle: %d overflowing puts, %d gets on an empty list", overflows, empties)
	}
}

// TestFetchRecordsReturnHome pins the fetch record's round trip on a real
// 8-node machine, phase after phase on recycled runtimes: every record a node's
// free list holds is one that node filled — replies bring records home, they
// never pile up at the owners that served them — and a second phase of the
// same program sends every request and receives every reply in records the
// first phase left behind, without growing a single batch. Two programs:
// PageRank's shape (planned mode with priors; edges skewed towards a few hot
// vertices on every node, so owners see very different fetch counts) and
// EM3D's (static strips; a node's neighbours are mostly its own vertices
// and its two ring neighbours').
func TestFetchRecordsReturnHome(t *testing.T) {
	const nodes, verts, degree = 8, 96, 6
	for _, c := range []struct {
		name string
		cfg  Config
		edge func(me, v, k int) (node, addr int)
	}{
		{"pagerank", shapedCfg(), func(me, v, k int) (int, int) {
			h := uint32((me*verts+v)*degree+k) * 0x9E3779B1
			a := int(h>>16) % verts
			return int(h>>8) % nodes, a * a / verts
		}},
		{"em3d", staticCfg(), func(me, v, k int) (int, int) {
			node := me
			switch k {
			case 0:
				node = (me + 1) % nodes
			case 1:
				node = (me + nodes - 1) % nodes
			}
			return node, (v*7 + k*13) % verts
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := fm.NewNet()
			proto := RegisterProto(net)
			space := gptr.NewSpace(nodes)
			for node := 0; node < nodes; node++ {
				for i := 0; i < verts; i++ {
					space.Alloc(node, obj{id: i})
				}
			}
			rts := make([]*RT, nodes)
			priors := make([]PriorTable, nodes)
			var reqs [nodes]int64
			phase := func() {
				m := machine.New(machine.DefaultT3D(nodes))
				defer m.Close()
				_, err := m.Run(func(nd *machine.Node) {
					me := nd.ID()
					ep := fm.NewEP(net, nd)
					rt := New(proto, ep, space, c.cfg, rts[me])
					rts[me] = rt
					if c.cfg.Planned {
						rt.AttachPrior(&priors[me])
					}
					id := rt.Template(func(gptr.Object, uint64, uint64) {})
					rt.ForAll(verts, func(v int) {
						for k := 0; k < degree; k++ {
							node, addr := c.edge(me, v, k)
							rt.SpawnT(gptr.Ptr{Node: int32(node), Addr: int32(addr)}, id, 0, 0)
						}
					})
					if c.cfg.Planned {
						rt.FoldPrior()
					}
					reqs[me] = rt.Stats().ReqMsgs
					ep.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			// held maps every record on each node's free list to its batch's
			// capacity.
			held := func() []map[*fetchReq]int {
				lists := make([]map[*fetchReq]int, nodes)
				for i := range rts {
					lists[i] = map[*fetchReq]int{}
					for _, r := range rts[i].pool.reqs {
						lists[i][r] = cap(r.ptrs)
					}
				}
				return lists
			}

			phase()
			first := held()
			home := map[*fetchReq]int{}
			for i, list := range first {
				if reqs[i] == 0 || len(list) == 0 {
					t.Fatalf("node %d sent %d requests and holds %d records: the program fetches nothing", i, reqs[i], len(list))
				}
				for r := range list {
					if j, dup := home[r]; dup {
						t.Fatalf("one record is on the free lists of nodes %d and %d", j, i)
					}
					home[r] = i
				}
			}
			phase()
			for i, list := range held() {
				for r, n := range list {
					j, ok := home[r]
					switch {
					case !ok:
						t.Errorf("node %d holds a record the second phase allocated", i)
					case j != i:
						t.Errorf("node %d holds a record node %d filled", i, j)
					case n != first[i][r]:
						t.Errorf("node %d: a record's batch grew from %d to %d pointers", i, first[i][r], n)
					}
				}
				if len(list) != len(first[i]) {
					t.Errorf("node %d holds %d records after the second phase, %d after the first", i, len(list), len(first[i]))
				}
			}
		})
	}
}

// TestColdRecordsComeInSlabs pins where new fetch records come from. A cold
// node (empty free list, no chunks yet) that opens R records, a quarter of
// which outgrow their first room twice, pays O(R/recChunk) allocations for
// them, not two or more per record: every record chunk is used whole, and no
// full-size pointer chunk but the last is left more than a quarter unused. A
// record that outgrows its room moves alone; the neighbour carved after it
// keeps its pointers and its room. A record carrying one object keeps its
// one slot, and a longer one grows 1, recSmall, recCap, then doubles, each
// step within its destination's limit. Last, eight cold nodes fetch from one
// another under the parallel engine, where owners on other workers read requests
// from chunks their home nodes are still filling, and every node's counters
// and the makespan match the sequential engine's.
func TestColdRecordsComeInSlabs(t *testing.T) {
	const R = 512
	p := gptr.Ptr{Node: 1, Addr: 7}
	recs := make([]*fetchReq, R)
	allocs := testing.AllocsPerRun(3, func() {
		var pl pools
		for i := range recs {
			recs[i] = pl.getReq(1)
			pl.push(recs[i], p, math.MaxInt)
			for k := 1; i%4 == 0 && k < recCap; k++ { // to recSmall, then recCap
				pl.push(recs[i], p, math.MaxInt)
			}
		}
		for _, r := range recs {
			pl.putReq(r)
		}
	})
	slots := R + R/4*(recSmall+recCap) // first rooms, then the grown quarter's two
	// Record chunks; full-size pointer chunks at three quarters' use, plus
	// the two smaller ones before them and the last; the free list.
	bound := R/recChunk + slots*4/(3*ptrChunk) + 3 + 1
	t.Logf("%d cold records: %.0f allocations (bound %d)", R, allocs, bound)
	if allocs > float64(bound) {
		t.Errorf("opening %d records on a cold node costs %.0f allocations, want at most %d", R, allocs, bound)
	}

	var pl pools
	a, b := pl.getReq(1), pl.getReq(1)
	p1, p2, p3 := gptr.Ptr{Node: 1, Addr: 1}, gptr.Ptr{Node: 1, Addr: 2}, gptr.Ptr{Node: 1, Addr: 3}
	pl.push(a, p1, math.MaxInt)
	pl.push(b, p2, math.MaxInt)
	was := &a.ptrs[0]
	pl.push(a, p3, math.MaxInt)
	switch {
	case len(a.ptrs) != 2 || a.ptrs[0] != p1 || a.ptrs[1] != p3:
		t.Errorf("the grown record holds %v, want [%v %v]", a.ptrs, p1, p3)
	case &a.ptrs[0] == was || cap(a.ptrs) != recSmall:
		t.Errorf("the grown record did not move to room for %d pointers (cap %d)", recSmall, cap(a.ptrs))
	case len(b.ptrs) != 1 || b.ptrs[0] != p2 || cap(b.ptrs) != 1:
		t.Errorf("growing one record changed its neighbour to %v (cap %d)", b.ptrs, cap(b.ptrs))
	}

	// The room a record holds after each pointer pushed: one slot while it
	// carries one object, as EM3D's batches do, then recSmall, then recCap
	// for PageRank's longer batches (each within the destination's limit),
	// doubling after that.
	for _, c := range []struct {
		name  string
		limit int
		caps  map[int]int // pointers pushed → room
	}{
		{"one object", 128, map[int]int{1: 1}},
		{"long batch", 128, map[int]int{1: 1, 2: recSmall, recSmall: recSmall, recSmall + 1: recCap, recCap: recCap, recCap + 1: 2 * recCap}},
		{"long batch, lower limit", 16, map[int]int{1: 1, 2: recSmall, recSmall + 1: 16, 17: 32}},
		{"limit 2", 2, map[int]int{1: 1, 2: 2, 3: 4}},
	} {
		var pl pools
		r, most := pl.getReq(1), 0
		for n := range c.caps {
			most = max(most, n)
		}
		for n := 1; n <= most; n++ {
			pl.push(r, p, c.limit)
			if want, ok := c.caps[n]; ok && cap(r.ptrs) != want {
				t.Errorf("%s: a record of %d pointers has room for %d, want %d", c.name, n, cap(r.ptrs), want)
			}
		}
	}

	const nodes, objs = 8, 64
	run := func(mcfg machine.Config) ([nodes]stats.RTStats, sim.Time) {
		net := fm.NewNet()
		proto := RegisterProto(net)
		space := gptr.NewSpace(nodes)
		for node := 0; node < nodes; node++ {
			for i := 0; i < objs; i++ {
				space.Alloc(node, obj{id: i})
			}
		}
		var st [nodes]stats.RTStats
		m := machine.New(mcfg)
		defer m.Close()
		makespan, err := m.Run(func(nd *machine.Node) {
			me := nd.ID()
			ep := fm.NewEP(net, nd)
			rt := New(proto, ep, space, staticCfg(), nil)
			id := rt.Template(func(gptr.Object, uint64, uint64) {})
			rt.ForAll(objs, func(i int) {
				for k := 1; k < nodes; k++ {
					rt.SpawnT(gptr.Ptr{Node: int32((me + k) % nodes), Addr: int32((i*k + me) % objs)}, id, 0, 0)
				}
			})
			st[me] = rt.Stats()
			ep.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, makespan
	}
	seq := machine.DefaultT3D(nodes)
	par := seq
	par.Engine, par.EngineTuning = sim.Parallel, sim.Tuning{Workers: 4}
	wantSt, wantT := run(seq)
	gotSt, gotT := run(par)
	if wantSt[0].ReqMsgs == 0 {
		t.Fatal("the program sent no requests")
	}
	if gotSt != wantSt || gotT != wantT {
		t.Errorf("parallel engine: makespan %d, counters %+v\nsequential: makespan %d, counters %+v", gotT, gotSt, wantT, wantSt)
	}
}
