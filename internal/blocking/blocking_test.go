package blocking

import (
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

type obj struct{ id int }

func (o obj) ByteSize() int { return 32 }

func TestBlockingSpawnRunsInOrder(t *testing.T) {
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 6; i++ {
		ptrs = append(ptrs, space.Alloc(i%2, obj{id: i}))
	}
	var order []int
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		if nd.ID() == 0 {
			for _, p := range ptrs {
				rt.Spawn(p, func(o gptr.Object) { order = append(order, o.(obj).id) })
			}
		}
		ep.Barrier()
	})
	// Blocking execution preserves program order exactly.
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ran %d threads", len(order))
	}
}

func TestEveryRemoteAccessRoundTrips(t *testing.T) {
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(2)
	p := space.Alloc(1, obj{id: 1})
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	var st int64
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		if nd.ID() == 0 {
			for i := 0; i < 5; i++ {
				rt.Spawn(p, func(o gptr.Object) {})
			}
			st = rt.Stats().Fetches
		}
		ep.Barrier()
	})
	if st != 5 {
		t.Fatalf("fetches = %d, want 5 (no caching)", st)
	}
}

func TestBlockingAccumulatesIdle(t *testing.T) {
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(2)
	var ptrs []gptr.Ptr
	for i := 0; i < 20; i++ {
		ptrs = append(ptrs, space.Alloc(1, obj{id: i}))
	}
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		if nd.ID() == 0 {
			for _, p := range ptrs {
				rt.Spawn(p, func(o gptr.Object) {})
			}
		}
		ep.Barrier()
	})
	c := m.Nodes()[0].Charges()
	idle := c[sim.Idle] + c[sim.FetchStall]
	if idle == 0 {
		t.Fatal("blocking runtime reported zero idle time over 20 round trips")
	}
	if c[sim.FetchStall] == 0 {
		t.Fatal("round-trip waits were not attributed to fetch stall")
	}
}

func TestNestedBlockingSpawns(t *testing.T) {
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(2)
	leaf := space.Alloc(1, obj{id: 2})
	root := space.Alloc(1, obj{id: 1})
	var order []int
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		if nd.ID() == 0 {
			rt.Spawn(root, func(o gptr.Object) {
				order = append(order, o.(obj).id)
				rt.Spawn(leaf, func(o gptr.Object) { order = append(order, o.(obj).id) })
			})
		}
		ep.Barrier()
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestMutualBlockingService(t *testing.T) {
	// Both nodes block on each other's objects alternately; service during
	// the wait loop must prevent deadlock.
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(2)
	var ptrs [2][]gptr.Ptr
	for node := 0; node < 2; node++ {
		for i := 0; i < 8; i++ {
			ptrs[node] = append(ptrs[node], space.Alloc(node, obj{id: i}))
		}
	}
	ran := [2]int{}
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, Default(), nil)
		me := nd.ID()
		for _, p := range ptrs[1-me] {
			rt.Spawn(p, func(o gptr.Object) { ran[me]++ })
		}
		ep.Barrier()
	})
	if ran[0] != 8 || ran[1] != 8 {
		t.Fatalf("ran = %v", ran)
	}
}
