package fmm

import (
	"math"
	"math/cmplx"

	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// ADist is the distributed form of an adaptive FMM step: expansions and
// leaf payloads of the adaptive tree placed in the global space, ownership
// by contiguous weighted ranges of the DFS leaf order (which is spatially
// compact, like a Morton order).
type ADist struct {
	T     *ATree
	Space *gptr.Space
	Owner []int32

	MpPtr   []gptr.Ptr
	LocPtr  []gptr.Ptr
	LeafPtr []gptr.Ptr

	MaxLevel int
	// OwnedAtLevel[node][level] lists owned cells per level (for the
	// barriered upward/downward passes); OwnedCells[node] lists all owned
	// cells (the interaction phase's top-level loop).
	OwnedAtLevel [][][]int32
	OwnedCells   [][]int32
	OwnedLeaves  [][]int32
}

// DistributeAdaptive assigns every cell of the adaptive tree to an owner
// and places its objects in the global space.
func DistributeAdaptive(t *ATree, nodes int) *ADist {
	d := &ADist{
		T:       t,
		Space:   gptr.NewSpace(nodes),
		MpPtr:   make([]gptr.Ptr, len(t.Cells)),
		LocPtr:  make([]gptr.Ptr, len(t.Cells)),
		LeafPtr: make([]gptr.Ptr, len(t.Cells)),
	}
	// Leaf ownership: weighted contiguous chunks of DFS order.
	var leaves []int
	weight := make([]float64, len(t.Cells))
	for ci := range t.Cells {
		if c := &t.Cells[ci]; c.Leaf {
			leaves = append(leaves, ci)
			weight[ci] = 1 + float64(len(c.Body))
		}
	}
	d.Owner = nbody.CostZones(leaves, weight, nodes)
	// Internal cells: owner of the first descendant leaf. Children follow
	// parents in the preorder cell array, so a reverse sweep sees children
	// first.
	for ci := len(t.Cells) - 1; ci >= 0; ci-- {
		c := &t.Cells[ci]
		if c.Leaf {
			continue
		}
		for _, ch := range c.Child {
			if ch >= 0 {
				d.Owner[ci] = d.Owner[ch]
				break
			}
		}
	}
	// Allocate expansions and global objects.
	d.OwnedAtLevel = make([][][]int32, nodes)
	d.OwnedCells = make([][]int32, nodes)
	d.OwnedLeaves = make([][]int32, nodes)
	for ci := range t.Cells {
		c := &t.Cells[ci]
		if int(c.Level) > d.MaxLevel {
			d.MaxLevel = int(c.Level)
		}
	}
	for n := 0; n < nodes; n++ {
		d.OwnedAtLevel[n] = make([][]int32, d.MaxLevel+1)
	}
	sl := newSlabs(len(t.Cells), len(leaves), len(t.Bodies), t.Terms)
	for ci := range t.Cells {
		c := &t.Cells[ci]
		mo, lo := sl.expansions(c.Center)
		c.Mp, c.Loc = mo.M, lo.L
		owner := int(d.Owner[ci])
		d.MpPtr[ci] = d.Space.Alloc(owner, mo)
		d.LocPtr[ci] = d.Space.Alloc(owner, lo)
		d.LeafPtr[ci] = gptr.Nil
		if c.Leaf {
			d.LeafPtr[ci] = d.Space.Alloc(owner, sl.leaf(int32(ci), c.Body, t.Bodies))
			d.OwnedLeaves[owner] = append(d.OwnedLeaves[owner], int32(ci))
		}
		d.OwnedAtLevel[owner][c.Level] = append(d.OwnedAtLevel[owner][c.Level], int32(ci))
		d.OwnedCells[owner] = append(d.OwnedCells[owner], int32(ci))
	}
	return d
}

// APhase runs the adaptive FMM step on one node under the given runtime:
// P2M, barriered upward M2M, the interaction phase over the U/V/W/X lists
// (strip-mined under DPA), barriered downward L2L, and final L2P.
func APhase(rt driver.Runtime, ep *fm.EP, nd *machine.Node, d *ADist,
	field []complex128, pot []float64) {

	me := nd.ID()
	t := d.T
	cm := DefaultCosts()
	p := sim.Time(t.Terms)
	pSq := p * p

	// One template per thread-creation site; the frame is the target cell.
	m2m := rt.Template(func(o gptr.Object, ci, _ uint64) {
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		t.Cells[ci].Mp.Shift(o.(*MpObj).M)
	})
	m2l := rt.Template(func(o gptr.Object, ci, _ uint64) { // V list
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		t.Cells[ci].Loc.AddMultipole(o.(*MpObj).M)
	})
	p2l := rt.Template(func(o gptr.Object, ci, _ uint64) { // X list
		src := o.(*LeafObj)
		for j := range src.Idx {
			nd.Charge(sim.Compute, cm.P2MTerm*p)
			t.Cells[ci].Loc.AddSourcePoint(src.Z[j], src.Q[j])
		}
	})
	p2p := rt.Template(func(o gptr.Object, ci, _ uint64) { // U list
		src := o.(*LeafObj)
		for _, bi := range t.Cells[ci].Body {
			z := Z(&t.Bodies[bi])
			for j := range src.Idx {
				if src.Idx[j] == bi {
					continue
				}
				nd.Charge(sim.Compute, cm.P2PPair)
				field[bi] += complex(src.Q[j], 0) / (z - src.Z[j])
				pot[bi] += src.Q[j] * math.Log(cmplx.Abs(z-src.Z[j]))
			}
		}
	})
	m2p := rt.Template(func(o gptr.Object, ci, _ uint64) { // W list
		mp := o.(*MpObj).M
		for _, bi := range t.Cells[ci].Body {
			z := Z(&t.Bodies[bi])
			nd.Charge(sim.Compute, cm.L2PTerm*p)
			field[bi] += mp.EvalDeriv(z)
			pot[bi] += real(mp.Eval(z))
		}
	})
	l2l := rt.Template(func(o gptr.Object, ci, _ uint64) {
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		t.Cells[ci].Loc.ShiftFrom(o.(*LocObj).L)
	})

	// 1. P2M on owned leaves.
	for _, ci := range d.OwnedLeaves[me] {
		c := &t.Cells[ci]
		nd.Touch(d.LeafPtr[ci].Key())
		for _, bi := range c.Body {
			c.Mp.AddSource(Z(&t.Bodies[bi]), t.Bodies[bi].Mass)
			nd.Charge(sim.Compute, cm.P2MTerm*p)
		}
	}
	ep.Barrier()

	// 2. Upward M2M, level by level.
	for lvl := d.MaxLevel - 1; lvl >= 0; lvl-- {
		cells := d.OwnedAtLevel[me][lvl]
		rt.ForAll(len(cells), func(k int) {
			ci := cells[k]
			c := &t.Cells[ci]
			if c.Leaf {
				return
			}
			for _, ch := range c.Child {
				if ch < 0 {
					continue
				}
				rt.SpawnT(d.MpPtr[ch], m2m, uint64(ci), 0)
			}
		})
		ep.Barrier()
	}

	// 3. Interaction phase: V (M2L), X (P2L), and at leaves U (P2P) and
	// W (M2P). One strip-mined loop over all owned cells.
	cells := d.OwnedCells[me]
	rt.ForAll(len(cells), func(k int) {
		ci := cells[k]
		c := &t.Cells[ci]
		for _, v := range c.V {
			rt.SpawnT(d.MpPtr[v], m2l, uint64(ci), 0)
		}
		for _, x := range c.X {
			rt.SpawnT(d.LeafPtr[x], p2l, uint64(ci), 0)
		}
		if !c.Leaf {
			return
		}
		for _, u := range c.U {
			rt.SpawnT(d.LeafPtr[u], p2p, uint64(ci), 0)
		}
		for _, w := range c.W {
			rt.SpawnT(d.MpPtr[w], m2p, uint64(ci), 0)
		}
	})
	ep.Barrier()

	// 4. Downward L2L, level by level (level-l locals are final before
	// level l+1 reads them).
	for lvl := 1; lvl <= d.MaxLevel; lvl++ {
		cells := d.OwnedAtLevel[me][lvl]
		rt.ForAll(len(cells), func(k int) {
			ci := cells[k]
			c := &t.Cells[ci]
			rt.SpawnT(d.LocPtr[c.Parent], l2l, uint64(ci), 0)
		})
		ep.Barrier()
	}

	// 5. L2P on owned leaves.
	for _, ci := range d.OwnedLeaves[me] {
		c := &t.Cells[ci]
		for _, bi := range c.Body {
			z := Z(&t.Bodies[bi])
			field[bi] += c.Loc.EvalDeriv(z)
			pot[bi] += real(c.Loc.Eval(z))
			nd.Charge(sim.Compute, cm.L2PTerm*p)
		}
	}
}

// RunAdaptiveStep simulates one adaptive FMM step under spec and returns
// the merged statistics and the per-body result.
func RunAdaptiveStep(mcfg machine.Config, spec driver.Spec, bodies []nbody.Body,
	leafCap, terms, maxLvl int) (stats.Run, *Result) {

	t := BuildAdaptive(bodies, leafCap, terms, maxLvl)
	d := DistributeAdaptive(t, mcfg.Nodes)
	field := make([]complex128, len(bodies))
	pot := make([]float64, len(bodies))
	run := driver.RunPhase(mcfg, d.Space, spec, func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
		APhase(rt, ep, nd, d, field, pot)
	})
	return run, &Result{Field: field, Pot: pot}
}
