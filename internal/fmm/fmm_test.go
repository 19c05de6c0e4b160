package fmm

import (
	"math"
	"math/cmplx"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/machine"
	"dpa/internal/nbody"
)

// fieldErr returns the average relative field error of got vs want.
func fieldErr(got, want []complex128) float64 {
	var s float64
	for i := range got {
		d := cmplx.Abs(got[i] - want[i])
		w := cmplx.Abs(want[i])
		if w < 1e-9 {
			w = 1e-9
		}
		s += d / w
	}
	return s / float64(len(got))
}

func TestSolveMatchesDirect(t *testing.T) {
	bodies := nbody.Uniform2D(600, 1)
	prm := Params{Terms: 16, Levels: 3, Costs: DefaultCosts()}
	got := Solve(bodies, prm, nil)
	want := DirectSolve(bodies)
	if err := fieldErr(got.Field, want.Field); err > 1e-8 {
		t.Fatalf("field error %g", err)
	}
	for i := range bodies {
		if math.Abs(got.Pot[i]-want.Pot[i]) > 1e-6*math.Max(1, math.Abs(want.Pot[i])) {
			t.Fatalf("potential %d: %g vs %g", i, got.Pot[i], want.Pot[i])
		}
	}
}

func TestSolveClusteredMatchesDirect(t *testing.T) {
	bodies := nbody.Clustered2D(400, 3, 2)
	prm := Params{Terms: 16, Levels: 4, Costs: DefaultCosts()}
	got := Solve(bodies, prm, nil)
	want := DirectSolve(bodies)
	if err := fieldErr(got.Field, want.Field); err > 1e-8 {
		t.Fatalf("field error %g", err)
	}
}

func TestMoreTermsMoreAccurate(t *testing.T) {
	bodies := nbody.Uniform2D(300, 3)
	want := DirectSolve(bodies)
	errFor := func(p int) float64 {
		got := Solve(bodies, Params{Terms: p, Levels: 3, Costs: DefaultCosts()}, nil)
		return fieldErr(got.Field, want.Field)
	}
	e4, e12 := errFor(4), errFor(12)
	if e12 >= e4 {
		t.Fatalf("p=12 (%g) not better than p=4 (%g)", e12, e4)
	}
}

func TestDefaultParamsLevels(t *testing.T) {
	for _, tc := range []struct {
		n      int
		levels int
	}{
		{100, 2}, {1 << 10, 4}, {32768, 6},
	} {
		prm := DefaultParams(tc.n)
		if prm.Levels != tc.levels {
			t.Errorf("n=%d: levels=%d, want %d", tc.n, prm.Levels, tc.levels)
		}
		if prm.Terms != 29 {
			t.Errorf("terms=%d, want 29", prm.Terms)
		}
	}
}

func TestDistributeConsistency(t *testing.T) {
	bodies := nbody.Uniform2D(500, 4)
	prm := Params{Terms: 8, Levels: 3, Costs: DefaultCosts()}
	d := Distribute(bodies, prm, 4)
	// Every body appears in exactly one leaf and one node's owned set.
	seen := make([]int, len(bodies))
	ownedTotal := 0
	for node := 0; node < 4; node++ {
		for _, c := range d.OwnedLeaves[node] {
			for _, bi := range d.LeafBody[c] {
				seen[bi]++
			}
			ownedTotal += len(d.LeafBody[c])
		}
	}
	if ownedTotal != len(bodies) {
		t.Fatalf("owned leaves cover %d bodies", ownedTotal)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("body %d covered %d times", i, s)
		}
	}
	// Non-empty cells have objects; empty cells have nil pointers.
	for l := 2; l <= prm.Levels; l++ {
		for c := 0; c < d.G.CellsAt(l); c++ {
			hasObj := !d.MpPtr[l][c].IsNil()
			if hasObj != (d.Below[l][c] > 0) {
				t.Fatalf("level %d cell %d: ptr/below mismatch", l, c)
			}
		}
	}
}

func TestWorkListMatchesOwnership(t *testing.T) {
	bodies := nbody.Uniform2D(300, 5)
	prm := Params{Terms: 8, Levels: 3, Costs: DefaultCosts()}
	nodes := 3
	d := Distribute(bodies, prm, nodes)
	count := 0
	for n := 0; n < nodes; n++ {
		for _, ref := range d.WorkList[n] {
			if d.Owner[ref.L][ref.C] != int32(n) {
				t.Fatalf("work item (%d,%d) on wrong node %d", ref.L, ref.C, n)
			}
			count++
		}
	}
	want := 0
	for l := 2; l <= prm.Levels; l++ {
		for c := 0; c < d.G.CellsAt(l); c++ {
			if d.Below[l][c] > 0 {
				want++
			}
		}
	}
	if count != want {
		t.Fatalf("work list covers %d cells, want %d", count, want)
	}
}

func runDist(t *testing.T, bodies []nbody.Body, prm Params, nodes int, spec driver.Spec) *Result {
	t.Helper()
	_, res := RunStep(machine.DefaultT3D(nodes), spec, bodies, prm)
	return res
}

func TestDistributedMatchesSolve(t *testing.T) {
	bodies := nbody.Uniform2D(400, 6)
	prm := Params{Terms: 12, Levels: 3, Costs: DefaultCosts()}
	want := Solve(bodies, prm, nil)
	for _, nodes := range []int{1, 2, 4} {
		for _, spec := range []driver.Spec{driver.DPASpec(50), driver.CachingSpec(), driver.BlockingSpec()} {
			got := runDist(t, bodies, prm, nodes, spec)
			if err := fieldErr(got.Field, want.Field); err > 1e-9 {
				t.Errorf("%s on %d nodes: field error %g", spec, nodes, err)
			}
		}
	}
}

func TestDistributedAccuracyVsDirect(t *testing.T) {
	bodies := nbody.Uniform2D(500, 7)
	prm := Params{Terms: 16, Levels: 3, Costs: DefaultCosts()}
	got := runDist(t, bodies, prm, 4, driver.DPASpec(50))
	want := DirectSolve(bodies)
	if err := fieldErr(got.Field, want.Field); err > 1e-8 {
		t.Fatalf("distributed field error vs direct: %g", err)
	}
}

func TestDPAStripSizesAgreeFMM(t *testing.T) {
	bodies := nbody.Uniform2D(300, 8)
	prm := Params{Terms: 10, Levels: 3, Costs: DefaultCosts()}
	want := Solve(bodies, prm, nil)
	for _, strip := range []int{1, 25, 300} {
		got := runDist(t, bodies, prm, 4, driver.DPASpec(strip))
		if err := fieldErr(got.Field, want.Field); err > 1e-9 {
			t.Errorf("strip %d: field error %g", strip, err)
		}
	}
}

func TestSeqStepCharges(t *testing.T) {
	bodies := nbody.Uniform2D(256, 9)
	prm := Params{Terms: 8, Levels: 3, Costs: DefaultCosts()}
	run, res := SeqStep(bodies, prm)
	if run.Makespan <= 0 {
		t.Fatal("no cycles charged")
	}
	want := DirectSolve(bodies)
	if err := fieldErr(res.Field, want.Field); err > 1e-3 {
		t.Fatalf("seq step inaccurate: %g", err)
	}
}

func TestAggregationHelpsFMM(t *testing.T) {
	// The 29-term multipole payloads make request aggregation count: fewer,
	// larger messages under DPA than under caching.
	bodies := nbody.Uniform2D(1024, 10)
	prm := Params{Terms: 12, Levels: 4, Costs: DefaultCosts()}
	dpaRun, _ := RunStep(machine.DefaultT3D(8), driver.DPASpec(1000), bodies, prm)
	cacheRun, _ := RunStep(machine.DefaultT3D(8), driver.CachingSpec(), bodies, prm)
	if dpaRun.RT.ReqMsgs >= cacheRun.RT.ReqMsgs {
		t.Errorf("DPA request messages (%d) not fewer than caching (%d)",
			dpaRun.RT.ReqMsgs, cacheRun.RT.ReqMsgs)
	}
}

// TestDistributeAllocations: a distribution costs a fixed number of
// allocations per node and per tree level, whatever its body and cell
// counts — expansions, leaves and work lists come from slabs, and each heap
// is reserved once. 117 at 1,024 bodies and 123 at 4,096: the 64 heaps,
// about 30 more, and six per level. Under the race detector they are 182
// and 187, so the bound is two per node and 80 more; built one object at a
// time, the same distribution of 4,096 bodies made about 14,000.
func TestDistributeAllocations(t *testing.T) {
	const nodes, bound = 64, 2*64 + 80
	for _, n := range []int{1024, 4096} {
		bodies := nbody.Uniform2D(n, 1)
		prm := DefaultParams(n)
		a := testing.AllocsPerRun(3, func() { Distribute(bodies, prm, nodes) })
		t.Logf("%d bodies, %d levels: %v allocations", n, prm.Levels, a)
		if a > bound {
			t.Errorf("Distribute of %d bodies on %d nodes allocates %v times, over %d", n, nodes, a, bound)
		}
	}
}
