package core

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// staticCfg and shapedCfg are the core halves of driver.DPASpec(50) and
// driver.DPASpec(50, WithShape()) — the benchmark's "static" and "planned".
func staticCfg() Config {
	c := Default()
	c.Strip = 50
	return c
}

func shapedCfg() Config {
	c := staticCfg()
	c.Planned = true
	return c
}

// newFootprint returns the bytes node 0 allocates for core.New plus an empty
// ForAll and Drain on a p-node machine, followed by a prior fold in which the
// same three owners were touched whatever p is (a no-op unless cfg keeps
// priors). Every other node's program is empty
// and has finished before the measurement starts (node 0 first charges past
// the machine's lookahead — its horizon while everyone else waits at time 0 —
// so its poll hands the sequential engine to all of them), so the MemStats
// delta is node 0's alone.
func newFootprint(t *testing.T, p int, cfg Config) uint64 {
	t.Helper()
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(p)
	var done atomic.Int32
	var allocated uint64
	mcfg := machine.DefaultT3D(p)
	m := machine.New(mcfg)
	defer m.Close()
	_, err := m.Run(func(nd *machine.Node) {
		if nd.ID() != 0 {
			done.Add(1)
			return
		}
		ep := fm.NewEP(net, nd)
		nd.Charge(sim.Compute, mcfg.Lookahead()+1)
		nd.Poll()
		if int(done.Load()) != p-1 {
			t.Errorf("only %d of %d other nodes had finished before the measurement", done.Load(), p-1)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := New(proto, ep, space, cfg, nil)
		rt.AttachPrior(&PriorTable{})
		rt.ForAll(0, func(int) {})
		rt.Drain()
		for _, o := range []int{1, 17, 63} {
			rt.dests.touch(o).phaseHist = int64(o)
		}
		rt.FoldPrior()
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocated
}

// TestNewFootprintIndependentOfMachineSize is the per-node-per-phase
// footprint budget: what a node allocates to build its runtime, run an empty
// phase and fold its prior must not depend on how many nodes the machine has.
// Anything sized by P on this path — a dense per-owner array, a P-bucket
// scratch, a prior table storing a record per node — makes the 4096-node
// figure exceed the 64-node one and fails the test.
func TestNewFootprintIndependentOfMachineSize(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"static", staticCfg()}, {"shaped", shapedCfg()}} {
		// The runtime itself may allocate behind the measurement's back (a
		// GC worker starting, say); the smallest of a few tries is the
		// program's own figure.
		small, large := ^uint64(0), ^uint64(0)
		for try := 0; try < 5; try++ {
			small = min(small, newFootprint(t, 64, c.cfg))
			large = min(large, newFootprint(t, 4096, c.cfg))
		}
		t.Logf("%s: %d bytes at P=64, %d bytes at P=4096", c.name, small, large)
		if small != large {
			t.Errorf("%s: New + empty phase allocates %d bytes at P=64 but %d at P=4096: something on the path is sized by the machine",
				c.name, small, large)
		}
	}
}

// dirtyCfg is shapedCfg under memory pressure: strips stay at 50 iterations
// and the budget holds one strip's copies but not two, so strip boundaries
// drop copies (which is what leaves dropped entries in the M/D index) while
// the last strip's copies stay.
func dirtyCfg() Config {
	c := shapedCfg()
	c.StripMax = 50
	c.MemBudget = 2000
	return c
}

// dirtyPhase runs one dirtyCfg phase on a fresh 4-node machine with every
// node's runtime built on the storage of rts, where it leaves it: node 0 fetches objects from all three
// other nodes (so the destination table, the M/D index's live and dropped
// entries, the free lists and the controller trace all fill up, and copies
// are still retained when the phase ends), attaches a prior and folds it.
// inspect, if set, runs on node 0 right after New, before any of that.
func dirtyPhase(t *testing.T, net *fm.Net, proto *Proto, space *gptr.Space, ptrs []gptr.Ptr,
	rts []*RT, pt *PriorTable, inspect func(rt *RT, ep *fm.EP)) {
	t.Helper()
	m := machine.New(machine.DefaultT3D(len(rts)))
	defer m.Close()
	_, err := m.Run(func(nd *machine.Node) {
		ep := fm.NewEP(net, nd)
		rt := New(proto, ep, space, dirtyCfg(), rts[nd.ID()])
		rts[nd.ID()] = rt
		if nd.ID() == 0 {
			if inspect != nil {
				inspect(rt, ep)
			}
			rt.AttachPrior(pt)
			fn := func(gptr.Object) { nd.Charge(sim.Compute, 10) }
			rt.ForAll(len(ptrs), func(i int) { rt.Spawn(ptrs[i], fn) })
			rt.FoldPrior()
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledRuntimeEncodesLikeFresh is the reset-completeness check: after
// a phase has dirtied every container and counter, a runtime built on the
// previous phase's must be indistinguishable from one built on fresh storage
// — their snapshot encodings, which cover the complete runtime state, are
// byte-equal before the phase body runs.
func TestRecycledRuntimeEncodesLikeFresh(t *testing.T) {
	const nodes = 4
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(nodes)
	var ptrs []gptr.Ptr
	for i := 0; i < 120; i++ {
		ptrs = append(ptrs, space.Alloc(1+i%3, obj{id: i}))
	}
	rts := make([]*RT, nodes)
	pt := &PriorTable{}
	dirtyPhase(t, net, proto, space, ptrs, rts, pt, nil)
	dirtyPhase(t, net, proto, space, ptrs, rts, pt, nil) // warm: shaped, retained copies

	old := rts[0]
	live, dropped := mdCounts(old)
	if live == 0 || dropped == 0 || len(old.dests.slots) < 3 ||
		len(old.trace) == 0 || old.st.Fetches == 0 || old.st.PlanStrips == 0 {
		t.Fatalf("the dirtying phases left the runtime too clean to test a reset: live=%d dropped=%d dests=%d trace=%d fetches=%d strips=%d",
			live, dropped, len(old.dests.slots), len(old.trace), old.st.Fetches, old.st.PlanStrips)
	}

	var recycled, fresh []byte
	dirtyPhase(t, net, proto, space, ptrs, rts, pt, func(rt *RT, ep *fm.EP) {
		var w sim.SnapWriter
		rt.EncodeSnapshot(&w)
		recycled = append([]byte(nil), w.Bytes()...)
		if cap(rt.dests.slots) < 3 || rt.entries.c == 0 || rt.waiters.c == 0 || len(rt.index) == 0 {
			t.Errorf("recycled runtime kept no storage: cap(slots)=%d cap(entries)=%d cap(waiters)=%d cells=%d",
				cap(rt.dests.slots), rt.entries.c, rt.waiters.c, len(rt.index))
		}
		var wf sim.SnapWriter
		New(proto, ep, space, dirtyCfg(), nil).EncodeSnapshot(&wf)
		fresh = wf.Bytes()
		ep.Ctx = rt // New rebinds the endpoint; hand it back
	})
	if !bytes.Equal(recycled, fresh) {
		i := 0
		for i < len(recycled) && i < len(fresh) && recycled[i] == fresh[i] {
			i++
		}
		t.Fatalf("recycled runtime's snapshot (%d bytes) differs from a fresh runtime's (%d bytes) at byte %d",
			len(recycled), len(fresh), i)
	}
}
