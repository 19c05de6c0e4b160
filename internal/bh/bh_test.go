package bh

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/nbody"
)

func TestBuildContainsAllBodies(t *testing.T) {
	bodies := nbody.Plummer(500, 1)
	tr := Build(bodies, 8)
	root := tr.Cells[tr.Root]
	if root.NBelow != 500 {
		t.Fatalf("root NBelow = %d", root.NBelow)
	}
	// Every body appears in exactly one leaf.
	seen := make([]int, 500)
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		if !c.Leaf {
			if len(c.Body) != 0 {
				t.Fatalf("internal cell %d has bodies", ci)
			}
			continue
		}
		for _, bi := range c.Body {
			seen[bi]++
		}
	}
	for i, s := range seen {
		if s != 1 {
			t.Errorf("body %d appears %d times", i, s)
		}
	}
}

func TestBuildMassConserved(t *testing.T) {
	bodies := nbody.Plummer(300, 2)
	tr := Build(bodies, 4)
	var want float64
	for i := range bodies {
		want += bodies[i].Mass
	}
	got := tr.Cells[tr.Root].Mass
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("root mass %g, want %g", got, want)
	}
}

func TestBuildLeafCapRespected(t *testing.T) {
	bodies := nbody.Plummer(1000, 3)
	tr := Build(bodies, 8)
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		if c.Leaf && len(c.Body) > 8 && c.Depth < maxDepth {
			t.Fatalf("leaf %d holds %d bodies at depth %d", ci, len(c.Body), c.Depth)
		}
	}
}

func TestBuildBodiesInsideCells(t *testing.T) {
	bodies := nbody.Plummer(200, 4)
	tr := Build(bodies, 2)
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		for _, bi := range c.Body {
			for d := 0; d < 3; d++ {
				lo, hi := c.Center[d]-c.Half, c.Center[d]+c.Half
				p := tr.Bodies[bi].Pos[d]
				if p < lo-1e-9 || p > hi+1e-9 {
					t.Fatalf("body %d outside leaf %d in dim %d: %g not in [%g,%g]",
						bi, ci, d, p, lo, hi)
				}
			}
		}
	}
}

func TestCoincidentBodiesDoNotLoop(t *testing.T) {
	bodies := make([]nbody.Body, 0, 40)
	for i := 0; i < 20; i++ {
		bodies = append(bodies, nbody.Body{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1})
	}
	for i := 0; i < 20; i++ { // leaves carved after the coincident bodies' one
		f := float64(i) / 20
		bodies = append(bodies, nbody.Body{Pos: [3]float64{f, 1 - f, f * f}, Mass: 1})
	}
	tr := Build(bodies, 2)
	if tr.Cells[tr.Root].NBelow != 40 {
		t.Fatal("lost bodies")
	}
	// The 20 coincident bodies share one leaf at maxDepth, past its 3-entry
	// carve, so its Body grew by append; the leaves carved after it must
	// keep theirs, and each body must be in exactly one leaf.
	seen := make([]int, len(bodies))
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		if !c.Leaf {
			continue
		}
		if len(c.Body) > tr.LeafCap && c.Depth < maxDepth {
			t.Fatalf("leaf %d holds %d bodies at depth %d", ci, len(c.Body), c.Depth)
		}
		for _, bi := range c.Body {
			seen[bi]++
		}
	}
	for i, k := range seen {
		if k != 1 {
			t.Errorf("body %d is in %d leaves", i, k)
		}
	}
}

func TestBHAccuracyVsDirect(t *testing.T) {
	bodies := nbody.Plummer(256, 5)
	tr := Build(bodies, 8)
	approx := tr.SeqForces(0.5, 0.05)
	exact := DirectForces(bodies, 0.05)
	var relErrSum float64
	for i := range bodies {
		var en, dn float64
		for d := 0; d < 3; d++ {
			diff := approx[i][d] - exact[i][d]
			en += diff * diff
			dn += exact[i][d] * exact[i][d]
		}
		if dn > 0 {
			relErrSum += math.Sqrt(en / dn)
		}
	}
	avg := relErrSum / float64(len(bodies))
	if avg > 0.05 {
		t.Fatalf("average relative force error %g too large for theta=0.5", avg)
	}
}

func TestSmallerThetaMoreAccurate(t *testing.T) {
	bodies := nbody.Plummer(200, 6)
	tr := Build(bodies, 4)
	exact := DirectForces(bodies, 0.05)
	errFor := func(theta float64) float64 {
		approx := tr.SeqForces(theta, 0.05)
		var s float64
		for i := range bodies {
			for d := 0; d < 3; d++ {
				diff := approx[i][d] - exact[i][d]
				s += diff * diff
			}
		}
		return s
	}
	if errFor(0.3) >= errFor(1.2) {
		t.Fatal("theta=0.3 no more accurate than theta=1.2")
	}
}

func TestCountersScaleAsNLogN(t *testing.T) {
	// Interactions per body must grow slowly (logarithmically-ish), not
	// linearly, with n.
	perBody := func(n int) float64 {
		bodies := nbody.Plummer(n, 7)
		tr := Build(bodies, 8)
		var ctr Counters
		for i := range bodies {
			tr.ForceOn(int32(i), 1.0, 0.05, false, CostModel{}, nil, &ctr)
		}
		return float64(ctr.BodyBody+ctr.BodyCell) / float64(n)
	}
	small, big := perBody(256), perBody(2048)
	if big > small*4 {
		t.Fatalf("interactions/body grew %gx for 8x bodies (not hierarchical)", big/small)
	}
}

func TestDistributeCoversAllCells(t *testing.T) {
	bodies := nbody.Plummer(400, 8)
	tr := Build(bodies, 8)
	d := Distribute(tr, 4, 3, nil)
	for ci, p := range d.Ptrs {
		if p.IsNil() {
			t.Fatalf("cell %d unplaced", ci)
		}
		obj := d.Space.Get(p).(*CellObj)
		if obj.Idx != int32(ci) {
			t.Fatalf("cell %d mapped to object %d", ci, obj.Idx)
		}
	}
	if d.Replicated == 0 {
		t.Error("no cells replicated with ReplDepth=3")
	}
	total := 0
	for node := 0; node < 4; node++ {
		total += len(d.LocalBody[node])
	}
	if total != 400 {
		t.Fatalf("local body lists cover %d bodies", total)
	}
}

// TestLeafPayloadsAreClipped: every leaf's BIdx, BPos and BMass are windows
// into Distribute's flat arrays, so growing one leaf's must copy it out and
// leave the leaf placed next to it as it was.
func TestLeafPayloadsAreClipped(t *testing.T) {
	bodies := nbody.Plummer(300, 9)
	tr := Build(bodies, 4)
	d := Distribute(tr, 4, 1, nil)
	var leaves []*CellObj // in placement order: each leaf's arrays follow the previous one's
	var walk func(p gptr.Ptr)
	walk = func(p gptr.Ptr) {
		c := d.Space.Get(p).(*CellObj)
		if c.Leaf {
			leaves = append(leaves, c)
		}
		for _, ch := range c.Child {
			if !ch.IsNil() {
				walk(ch)
			}
		}
	}
	walk(d.Ptrs[tr.Root])
	if len(leaves) < 2 {
		t.Fatalf("only %d leaves", len(leaves))
	}
	for i, a := range leaves[:len(leaves)-1] {
		b := leaves[i+1]
		idx := append([]int32(nil), b.BIdx...)
		pos := append([][3]float64(nil), b.BPos...)
		mass := append([]float64(nil), b.BMass...)
		_ = append(a.BIdx, -1)
		_ = append(a.BPos, [3]float64{-1, -1, -1})
		_ = append(a.BMass, -1)
		if !slices.Equal(b.BIdx, idx) || !slices.Equal(b.BPos, pos) || !slices.Equal(b.BMass, mass) {
			t.Fatalf("appending to leaf %d changed leaf %d's bodies", a.Idx, b.Idx)
		}
		if len(a.BIdx) != len(a.BPos) || len(a.BIdx) != len(a.BMass) {
			t.Fatalf("leaf %d carries %d, %d and %d body entries", a.Idx, len(a.BIdx), len(a.BPos), len(a.BMass))
		}
		for j, bi := range a.BIdx {
			if a.BPos[j] != tr.Bodies[bi].Pos || a.BMass[j] != tr.Bodies[bi].Mass {
				t.Fatalf("leaf %d entry %d does not carry body %d", a.Idx, j, bi)
			}
		}
	}
}

// TestBuildDistributeAllocations: building and distributing a tree costs a
// fixed number of allocations, not one per body or per cell — the cells,
// the leaf bodies and the CellObjs come from slabs, and each heap is
// reserved once from its owner's cell count. 84 at either size: the 64
// heaps, and 20 for the tree and its first carve, the pointer and owner
// tables, Partition's sort, the local body lists, the three leaf arrays,
// the CellObj slab and the replicated area. Under the race detector it is
// 148, so the bound is two per node and 32 more; growing the heaps or the
// body lists by append again costs 5 to 7 per node.
func TestBuildDistributeAllocations(t *testing.T) {
	const nodes, bound = 64, 2*64 + 32
	p := DefaultParams()
	var counts []float64
	for _, n := range []int{1024, 4096} {
		bodies := nbody.Plummer(n, 42)
		a := testing.AllocsPerRun(3, func() {
			Distribute(Build(bodies, p.LeafCap), nodes, p.ReplDepth, nil)
		})
		t.Logf("%d bodies: %v allocations", n, a)
		if a > bound {
			t.Errorf("Build + Distribute of %d bodies on %d nodes allocates %v times, over %d", n, nodes, a, bound)
		}
		counts = append(counts, a)
	}
	if counts[1] != counts[0] {
		t.Errorf("Build + Distribute allocates %v times for 1,024 bodies and %v for 4,096, want the same", counts[0], counts[1])
	}
}

// TestCellObjSize pins the slab element Distribute carves a cell from: the
// summary and child pointers (184 bytes with Idx and Leaf in one word) and
// the three leaf-payload slice headers.
func TestCellObjSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is calibrated for 64-bit platforms")
	}
	if got := unsafe.Sizeof(CellObj{}); got > 256 {
		t.Errorf("bh.CellObj grew to %d bytes, over its 256-byte budget; repack or re-justify", got)
	}
}

func TestDistributeChildPointersResolve(t *testing.T) {
	bodies := nbody.Plummer(300, 9)
	tr := Build(bodies, 4)
	d := Distribute(tr, 2, 2, nil)
	// Walk the object graph from the root and count reachable bodies.
	count := 0
	var rec func(ci int32)
	rec = func(ci int32) {
		obj := d.Space.Get(d.Ptrs[ci]).(*CellObj)
		if obj.Leaf {
			count += len(obj.BIdx)
			return
		}
		for i, ch := range obj.Child {
			if tr.Cells[ci].Child[i] == -1 {
				if !ch.IsNil() {
					t.Fatalf("cell %d child %d should be nil", ci, i)
				}
				continue
			}
			if ch.IsNil() {
				t.Fatalf("cell %d child %d lost", ci, i)
			}
			rec(tr.Cells[ci].Child[i])
		}
	}
	rec(tr.Root)
	if count != 300 {
		t.Fatalf("object graph reaches %d bodies", count)
	}
}

// distForces runs the distributed force phase and returns accelerations.
func distForces(t *testing.T, bodies []nbody.Body, nodes int, spec driver.Spec, p Params) [][3]float64 {
	t.Helper()
	tr := Build(bodies, p.LeafCap)
	d := Distribute(tr, nodes, p.ReplDepth, nil)
	acc := make([][3]float64, len(bodies))
	driver.RunPhase(machine.DefaultT3D(nodes), d.Space, spec,
		func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
			ForcePhase(rt, nd, d, p, acc, nil)
		})
	return acc
}

func accClose(t *testing.T, a, b [][3]float64, tol float64, label string) {
	t.Helper()
	for i := range a {
		for d := 0; d < 3; d++ {
			diff := math.Abs(a[i][d] - b[i][d])
			scale := math.Max(1, math.Abs(b[i][d]))
			if diff/scale > tol {
				t.Fatalf("%s: body %d dim %d: %g vs %g", label, i, d, a[i][d], b[i][d])
			}
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	bodies := nbody.Plummer(300, 10)
	p := DefaultParams()
	tr := Build(bodies, p.LeafCap)
	want := tr.SeqForces(p.Theta, p.Eps)
	for _, nodes := range []int{1, 2, 4} {
		for _, spec := range []driver.Spec{driver.DPASpec(50), driver.CachingSpec(), driver.BlockingSpec()} {
			got := distForces(t, bodies, nodes, spec, p)
			accClose(t, got, want, 1e-9, spec.String())
		}
	}
}

func TestDPAStripSizesAgree(t *testing.T) {
	bodies := nbody.Plummer(200, 11)
	p := DefaultParams()
	tr := Build(bodies, p.LeafCap)
	want := tr.SeqForces(p.Theta, p.Eps)
	for _, strip := range []int{1, 10, 300} {
		got := distForces(t, bodies, 4, driver.DPASpec(strip), p)
		accClose(t, got, want, 1e-9, "strip")
	}
}

func TestRunStepsAdvances(t *testing.T) {
	bodies := nbody.Plummer(128, 12)
	p := DefaultParams()
	run := RunSteps(machine.DefaultT3D(2), driver.DPASpec(50), bodies, 2, p)
	if run.Makespan <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if run.RT.ThreadsRun == 0 {
		t.Fatal("no threads ran")
	}
}

func TestSeqStepsPositiveTime(t *testing.T) {
	bodies := nbody.Plummer(128, 13)
	run := SeqSteps(bodies, 1, DefaultParams())
	if run.Makespan <= 0 {
		t.Fatal("sequential run has no cost")
	}
}

func TestDPABeatsBlockingAtScale(t *testing.T) {
	bodies := nbody.Plummer(512, 14)
	p := DefaultParams()
	dpa := RunSteps(machine.DefaultT3D(8), driver.DPASpec(50), bodies, 1, p)
	blk := RunSteps(machine.DefaultT3D(8), driver.BlockingSpec(), bodies, 1, p)
	if dpa.Makespan >= blk.Makespan {
		t.Fatalf("DPA (%d) not faster than blocking (%d)", dpa.Makespan, blk.Makespan)
	}
}

func TestOpenCriterion(t *testing.T) {
	f := func(rawSize, rawDist uint16) bool {
		size := float64(rawSize)/1000 + 0.001
		dist := float64(rawDist)/1000 + 0.001
		com := [3]float64{dist, 0, 0}
		pos := [3]float64{0, 0, 0}
		want := size/dist >= 1.0 // theta = 1
		return open(size, com, pos, 1.0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccelPointsTowardSource(t *testing.T) {
	a := Accel([3]float64{0, 0, 0}, [3]float64{1, 0, 0}, 2, 0)
	if a[0] <= 0 || a[1] != 0 || a[2] != 0 {
		t.Fatalf("acc = %v", a)
	}
	if math.Abs(a[0]-2.0) > 1e-12 { // m/r^2 with r=1
		t.Fatalf("magnitude %g, want 2", a[0])
	}
}

func TestCellObjByteSize(t *testing.T) {
	internal := &CellObj{Leaf: false}
	if internal.ByteSize() != 136 {
		t.Errorf("internal size %d", internal.ByteSize())
	}
	leaf := &CellObj{Leaf: true, BIdx: make([]int32, 4)}
	if leaf.ByteSize() != 64+4*36 {
		t.Errorf("leaf size %d", leaf.ByteSize())
	}
}

func TestCostzonesReduceIdle(t *testing.T) {
	// With work-weighted costzones from step 1, step 2's idle time (load
	// imbalance) must not exceed twice the unweighted ideal — and the
	// multi-step run must remain correct.
	bodies := nbody.Plummer(2048, 21)
	p := DefaultParams()
	run := RunSteps(machine.DefaultT3D(8), driver.DPASpec(50), bodies, 2, p)
	if run.Makespan <= 0 || run.RT.ThreadsRun == 0 {
		t.Fatal("run did nothing")
	}
	// Weighted partition must still cover all bodies each step: thread
	// spawn count equals visits, and every body contributes at least its
	// root spawn per step.
	if run.RT.Spawns < int64(2*2048) {
		t.Fatalf("spawns = %d, want >= %d", run.RT.Spawns, 2*2048)
	}
}

func TestWorkCountsRecorded(t *testing.T) {
	bodies := nbody.Plummer(256, 22)
	p := DefaultParams()
	tr := Build(bodies, p.LeafCap)
	d := Distribute(tr, 2, p.ReplDepth, nil)
	acc := make([][3]float64, len(bodies))
	work := make([]float64, len(bodies))
	driver.RunPhase(machine.DefaultT3D(2), d.Space, driver.DPASpec(50),
		func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
			ForcePhase(rt, nd, d, p, acc, work)
		})
	for i, w := range work {
		if w <= 0 {
			t.Fatalf("body %d recorded no work", i)
		}
	}
	// Work counts must equal the sequential traversal's interaction counts.
	var ctr Counters
	for i := range bodies {
		ctr = Counters{}
		tr.ForceOn(int32(i), p.Theta, p.Eps, false, CostModel{}, nil, &ctr)
		if int64(work[i]) != ctr.BodyBody+ctr.BodyCell {
			t.Fatalf("body %d: work %v, sequential %d", i, work[i], ctr.BodyBody+ctr.BodyCell)
		}
	}
}

func TestQuadrupoleImprovesAccuracy(t *testing.T) {
	bodies := nbody.Plummer(400, 31)
	tr := Build(bodies, 8)
	exact := DirectForces(bodies, 0.05)
	sumErr := func(acc [][3]float64) float64 {
		var s float64
		for i := range acc {
			for d := 0; d < 3; d++ {
				diff := acc[i][d] - exact[i][d]
				s += diff * diff
			}
		}
		return s
	}
	mono := sumErr(tr.SeqForcesQ(1.0, 0.05, false))
	quad := sumErr(tr.SeqForcesQ(1.0, 0.05, true))
	if quad >= mono {
		t.Fatalf("quadrupole error %g not below monopole %g", quad, mono)
	}
	if quad > mono/3 {
		t.Fatalf("quadrupole only improved %gx; expected a substantial gain", mono/quad)
	}
}

func TestQuadrupoleTraceless(t *testing.T) {
	bodies := nbody.Plummer(300, 33)
	tr := Build(bodies, 8)
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		trace := c.Quad[0] + c.Quad[3] + c.Quad[5]
		if math.Abs(trace) > 1e-9*math.Max(1, math.Abs(c.Quad[0])) {
			t.Fatalf("cell %d quadrupole trace %g", ci, trace)
		}
	}
}

func TestQuadrupoleParallelAxisConsistent(t *testing.T) {
	// A cell's quadrupole computed via children must match the direct sum
	// over all bodies beneath it.
	bodies := nbody.Plummer(500, 35)
	tr := Build(bodies, 4)
	var bodiesUnder func(ci int32, fn func(int32))
	bodiesUnder = func(ci int32, fn func(int32)) {
		c := &tr.Cells[ci]
		for _, bi := range c.Body {
			fn(bi)
		}
		for _, ch := range c.Child {
			if ch != -1 {
				bodiesUnder(ch, fn)
			}
		}
	}
	for ci := range tr.Cells {
		c := &tr.Cells[ci]
		if c.NBelow < 2 {
			continue
		}
		var want [6]float64
		bodiesUnder(int32(ci), func(bi int32) {
			b := &tr.Bodies[bi]
			var d [3]float64
			var d2 float64
			for k := 0; k < 3; k++ {
				d[k] = b.Pos[k] - c.COM[k]
				d2 += d[k] * d[k]
			}
			want[0] += b.Mass * (3*d[0]*d[0] - d2)
			want[1] += b.Mass * 3 * d[0] * d[1]
			want[2] += b.Mass * 3 * d[0] * d[2]
			want[3] += b.Mass * (3*d[1]*d[1] - d2)
			want[4] += b.Mass * 3 * d[1] * d[2]
			want[5] += b.Mass * (3*d[2]*d[2] - d2)
		})
		for q := 0; q < 6; q++ {
			if math.Abs(c.Quad[q]-want[q]) > 1e-9*math.Max(1, math.Abs(want[q])) {
				t.Fatalf("cell %d quad[%d] = %g, want %g", ci, q, c.Quad[q], want[q])
			}
		}
	}
}

func TestQuadrupoleDistributedMatchesSequential(t *testing.T) {
	bodies := nbody.Plummer(300, 37)
	p := DefaultParams()
	p.Quad = true
	tr := Build(bodies, p.LeafCap)
	want := tr.SeqForcesQ(p.Theta, p.Eps, true)
	got := distForces(t, bodies, 4, driver.DPASpec(50), p)
	accClose(t, got, want, 1e-9, "quad distributed")
}
