package main

import (
	"runtime"
	"time"

	"dpa"
	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// cost is what one probe call cost the host.
type cost struct{ ns, allocs, bytes float64 }

// probe calls f reps times after one discarded call and returns the median
// host cost of a call. Every probe is a span of the traced run.
func probe(sp *spanLog, name string, reps int, f func()) cost {
	defer sp.begin("probe." + name)()
	f()
	var ns, allocs, bytes samples
	for i := 0; i < reps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds()))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return cost{ns.median(), allocs.median(), bytes.median()}
}

// per divides a cost over n operations.
func (c cost) per(n int) cost {
	return cost{c.ns / float64(n), c.allocs / float64(n), c.bytes / float64(n)}
}

// sub is the cost above a baseline, not below zero.
func (c cost) sub(b cost) cost {
	return cost{max(0, c.ns-b.ns), max(0, c.allocs-b.allocs), max(0, c.bytes-b.bytes)}
}

// The messaging probes pass rounds messages around a ring of all nodes: each
// node sends to its right neighbour and waits for the message from its left.
// The same ring is built on sim, on machine and on fm, so the difference
// between two of them is the upper layer's own cost per message.

func simRing(mcfg machine.Config, rounds int) {
	eng, err := sim.NewEngineWith(mcfg.Engine, mcfg.Lookahead(), mcfg.EngineTuning)
	if err != nil {
		panic(err) // the tuning is the zero value
	}
	n, delay := mcfg.Nodes, mcfg.Lookahead()
	for i := 0; i < n; i++ {
		eng.Spawn(func(p *sim.Proc) {
			right := (p.ID() + 1) % n
			for r, got := 0, 0; r < rounds; r++ {
				p.Charge(sim.Compute, 100)
				p.Post(right, sim.Message{Arrival: p.Now() + delay, Bytes: 24})
				for got <= r {
					got += len(p.WaitMessage())
				}
			}
		})
	}
	if _, err := eng.Run(); err != nil {
		panic(err)
	}
}

func machineRing(mcfg machine.Config, rounds int) {
	_, err := machine.New(mcfg).Run(func(nd *machine.Node) {
		right := (nd.ID() + 1) % nd.N()
		for r, got := 0, 0; r < rounds; r++ {
			nd.Send(right, 0, nil, 24)
			for got <= r {
				got += len(nd.WaitMessage())
			}
		}
	})
	if err != nil {
		panic(err)
	}
}

func fmRing(mcfg machine.Config, rounds int) {
	net := fm.NewNet()
	got := make([]int, mcfg.Nodes)
	h := net.Register(func(ep *fm.EP, _ sim.Message) { got[ep.Node.ID()]++ })
	_, err := machine.New(mcfg).Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		id, right := nd.ID(), (nd.ID()+1)%nd.N()
		for r := 0; r < rounds; r++ {
			ep.Send(right, h, nil, 24)
			for got[id] <= r {
				ep.WaitAndDispatch()
			}
		}
	})
	if err != nil {
		panic(err)
	}
}

func fmBarriers(mcfg machine.Config, barriers int) {
	net := fm.NewNet()
	_, err := machine.New(mcfg).Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		for b := 0; b < barriers; b++ {
			ep.Barrier()
		}
	})
	if err != nil {
		panic(err)
	}
}

// probeObj is the object the core probes spawn threads on.
type probeObj struct{ v float64 }

func (*probeObj) ByteSize() int { return 24 }

// coreSpace places k probe objects on each of n nodes.
func coreSpace(n, k int) (*gptr.Space, [][]gptr.Ptr) {
	space := gptr.NewSpace(n)
	ptrs := make([][]gptr.Ptr, n)
	for node := range ptrs {
		for i := 0; i < k; i++ {
			ptrs[node] = append(ptrs[node], space.Alloc(node, &probeObj{}))
		}
	}
	return space, ptrs
}

// corePhase runs one phase in which every node spawns len(ptrs[0]) threads:
// on its own objects ("local"), on one object of its right neighbour ("reuse":
// one fetch per strip, then reuses), or on distinct objects of its right
// neighbour ("fetch"). The kind "empty" runs the phase with an empty body,
// which leaves per-phase construction, the closing barrier and teardown.
func corePhase(mcfg machine.Config, spec dpa.Spec, space *gptr.Space, ptrs [][]gptr.Ptr, kind string) stats.Run {
	n := mcfg.Nodes
	return driver.RunPhase(mcfg, space, spec, func(rt driver.Runtime, _ *fm.EP, nd *machine.Node) {
		if kind == "empty" {
			return
		}
		own, right := ptrs[nd.ID()], ptrs[(nd.ID()+1)%n]
		target := map[string]func(i int) gptr.Ptr{
			"local": func(i int) gptr.Ptr { return own[i] },
			"reuse": func(int) gptr.Ptr { return right[0] },
			"fetch": func(i int) gptr.Ptr { return right[i] },
		}[kind]
		fn := func(gptr.Object) { nd.Charge(sim.Compute, 90) }
		rt.ForAll(len(own), func(i int) { rt.Spawn(target(i), fn) })
	}, driver.WithPriors(driver.NewPriorStore(), "probe"))
}

// gptrAllocGet allocates n objects round-robin over the space's nodes and
// dereferences each.
func gptrAllocGet(nodes, n int) {
	space := gptr.NewSpace(nodes)
	o := &probeObj{}
	for i := 0; i < n; i++ {
		if space.Get(space.Alloc(i%nodes, o)) != gptr.Object(o) {
			panic("gptr: Get did not return the allocated object")
		}
	}
}
