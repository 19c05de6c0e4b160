package em3d

import (
	"math"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

func TestBuildDeterministic(t *testing.T) {
	prm := DefaultParams(200)
	a := Build(prm, 4)
	b := Build(prm, 4)
	for i := range a.E {
		if a.E[i].Value != b.E[i].Value || a.H[i].Value != b.H[i].Value {
			t.Fatalf("node %d values differ", i)
		}
		for d := range a.E[i].Deps {
			if a.E[i].Deps[d] != b.E[i].Deps[d] {
				t.Fatalf("node %d dep %d differs", i, d)
			}
		}
	}
}

func TestBuildBipartite(t *testing.T) {
	g := Build(DefaultParams(100), 2)
	// E deps must all point at H objects and vice versa.
	for i := range g.E {
		for _, d := range g.E[i].Deps {
			if _, ok := g.Space.Get(d).(*GraphNode); !ok {
				t.Fatal("dep is not a GraphNode")
			}
			found := false
			for _, h := range g.HPtr {
				if h == d {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("E node %d depends on a non-H pointer", i)
			}
		}
	}
}

func TestLocalFraction(t *testing.T) {
	prm := DefaultParams(1000)
	prm.LocalFrac = 0.9
	g := Build(prm, 4)
	local, total := 0, 0
	for i := range g.E {
		owner := int32(i / g.per)
		for _, d := range g.E[i].Deps {
			total++
			if d.Node == owner {
				local++
			}
		}
	}
	frac := float64(local) / float64(total)
	// 0.9 explicit locals plus ~1/4 of the random remainder.
	if frac < 0.85 || frac > 0.99 {
		t.Fatalf("local fraction = %.2f, want ~0.92", frac)
	}
}

func TestOwnedRangesPartition(t *testing.T) {
	g := Build(DefaultParams(103), 4) // deliberately uneven
	covered := 0
	for m := 0; m < 4; m++ {
		lo, hi := g.ownedRange(m)
		covered += hi - lo
	}
	if covered != 103 {
		t.Fatalf("owned ranges cover %d nodes, want 103", covered)
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	prm := DefaultParams(300)
	const iters = 3
	for _, nodes := range []int{1, 4} {
		wantE, wantH := SeqIterate(prm, nodes, iters)
		for _, spec := range []driver.Spec{driver.DPASpec(50), driver.CachingSpec(), driver.BlockingSpec()} {
			_, g := RunIters(machine.DefaultT3D(nodes), spec, prm, iters)
			gotE, gotH := g.Values()
			for i := range wantE {
				if math.Abs(gotE[i]-wantE[i]) > 1e-9*math.Max(1, math.Abs(wantE[i])) {
					t.Fatalf("%s nodes=%d: E[%d] = %g, want %g", spec, nodes, i, gotE[i], wantE[i])
				}
				if math.Abs(gotH[i]-wantH[i]) > 1e-9*math.Max(1, math.Abs(wantH[i])) {
					t.Fatalf("%s nodes=%d: H[%d] = %g, want %g", spec, nodes, i, gotH[i], wantH[i])
				}
			}
		}
	}
}

func TestSeqStepCharges(t *testing.T) {
	prm := DefaultParams(100)
	run := SeqStep(prm)
	// 2 kinds x 100 nodes x degree 10 accumulations.
	wantCompute := int64(2*100*10) * int64(prm.UpdateCost)
	if int64(run.Total().Cycles[0]) != wantCompute { // sim.Compute == 0
		t.Fatalf("compute cycles = %d, want %d", run.Total().Cycles[0], wantCompute)
	}
}

func TestDPAAggregatesEm3d(t *testing.T) {
	prm := DefaultParams(400)
	prm.LocalFrac = 0.3 // lots of remote traffic
	dpaRun, _ := RunIters(machine.DefaultT3D(8), driver.DPASpec(50), prm, 1)
	cacheRun, _ := RunIters(machine.DefaultT3D(8), driver.CachingSpec(), prm, 1)
	if dpaRun.RT.ReqMsgs >= cacheRun.RT.ReqMsgs {
		t.Errorf("DPA req msgs %d not fewer than caching %d", dpaRun.RT.ReqMsgs, cacheRun.RT.ReqMsgs)
	}
	if dpaRun.Makespan >= cacheRun.Makespan {
		t.Errorf("DPA (%d) not faster than caching (%d) on remote-heavy EM3D",
			dpaRun.Makespan, cacheRun.Makespan)
	}
}

// TestWeakScaledEM3DIsBalanced is the guard on the workload that exposed the
// flat collectives: 8 graph nodes per machine node does so little work per
// phase that the phase-closing barrier is most of what is left, so a
// collective that funnels through one node shows up as that node's busy
// time (4.65× the mean at 256 nodes when every arrive went to node 0) and
// as everyone else's barrier wait.
func TestWeakScaledEM3DIsBalanced(t *testing.T) {
	const nodes = 256
	run, _ := RunIters(machine.DefaultT3D(nodes), driver.DPASpec(50), DefaultParams(8*nodes), 2)
	if im, node := run.Imbalance(); im >= 2 {
		t.Errorf("node %d is busy for %.2f× the mean, want < 2", node, im)
	}
	if wait := run.Total().Cycles[sim.Idle] / nodes; wait >= run.Makespan/2 {
		t.Errorf("mean barrier wait %d cycles of a %d-cycle makespan, want under half", wait, run.Makespan)
	}
}

// BenchmarkRunIters is the em3d1024_static workload's run: 8192 graph nodes
// per kind on 1024 machine nodes under DPA(50), two iterations (four
// phases), sequential engine. RunIters builds its graph, so the figures are
// what one multi-phase run costs the host, construction included.
func BenchmarkRunIters(b *testing.B) {
	prm := DefaultParams(8192)
	mcfg := machine.DefaultT3D(1024)
	spec := driver.DPASpec(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _ := RunIters(mcfg, spec, prm, 2); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// TestPhaseBodiesBoundOncePerRun: each node binds its template function and
// loop body on its first phase, so a 4-iteration run allocates fewer than 2
// objects per node more than a 2-iteration one; bound per phase, the two
// closures cost 8 per node over the four extra phases (566 objects more at
// 64 nodes). What is left is the phases' shared objects (about 45 here).
func TestPhaseBodiesBoundOncePerRun(t *testing.T) {
	const nodes = 64
	prm := DefaultParams(8 * nodes)
	mcfg := machine.DefaultT3D(nodes)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() { RunIters(mcfg, driver.DPASpec(50), prm, iters) })
	}
	two, four := allocs(2), allocs(4)
	t.Logf("%d nodes: %v allocations for 2 iterations, %v for 4", nodes, two, four)
	if extra := four - two; extra >= 2*nodes {
		t.Errorf("4 phases more allocate %v objects more on %d nodes, want fewer than 2 per node", extra, nodes)
	}
}
