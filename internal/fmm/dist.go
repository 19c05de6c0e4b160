package fmm

import (
	"math"
	"math/cmplx"
	"slices"

	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// MpObj is a cell's multipole expansion as a global object. With the
// paper's 29 terms it is ~490 bytes — the large-object payload that makes
// request aggregation pay.
type MpObj struct {
	M *Multipole
}

// ByteSize models center + Q + coefficients.
func (o *MpObj) ByteSize() int { return 24 + 16*len(o.M.A) }

// LocObj is a cell's local expansion as a global object (fetched by the
// cell's children during the downward pass).
type LocObj struct {
	L *Local
}

// ByteSize models center + coefficients.
func (o *LocObj) ByteSize() int { return 16 + 16*len(o.L.B) }

// LeafObj carries a leaf cell's bodies inline (positions and charges), the
// near-field P2P payload.
type LeafObj struct {
	Cell int32
	Idx  []int32
	Z    []complex128
	Q    []float64
}

// ByteSize models the inline body array.
func (o *LeafObj) ByteSize() int { return 16 + 28*len(o.Idx) }

// slabs is what a distribution carves its global objects from: every
// non-empty cell's multipole and local expansion with their wrappers, and
// every leaf's LeafObj with its bodies' positions and charges, each kind one
// slice, so a distribution costs a fixed number of allocations whatever its
// cell and body counts. Coefficient and body arrays are capacity-clipped
// windows into flat arrays.
type slabs struct {
	p      int
	mp     []Multipole
	loc    []Local
	mpObj  []MpObj
	locObj []LocObj
	coef   []complex128 // 2p+1 per cell: the multipole's p, the local's p+1
	leaves []LeafObj
	z      []complex128
	q      []float64
}

// newSlabs sizes the slabs for cells expansion pairs of p terms and leaves
// leaves holding bodies bodies in all.
func newSlabs(cells, leaves, bodies, p int) *slabs {
	return &slabs{
		p:      p,
		mp:     make([]Multipole, 0, cells),
		loc:    make([]Local, 0, cells),
		mpObj:  make([]MpObj, 0, cells),
		locObj: make([]LocObj, 0, cells),
		coef:   make([]complex128, cells*(2*p+1)),
		leaves: make([]LeafObj, 0, leaves),
		z:      make([]complex128, 0, bodies),
		q:      make([]float64, 0, bodies),
	}
}

// expansions returns the next cell's zero multipole and local expansions
// about center, wrapped as global objects.
func (s *slabs) expansions(center complex128) (*MpObj, *LocObj) {
	p := s.p
	a, b := s.coef[:p:p], s.coef[p:2*p+1:2*p+1]
	s.coef = s.coef[2*p+1:]
	s.mp = append(s.mp, Multipole{Center: center, A: a})
	s.loc = append(s.loc, Local{Center: center, B: b})
	s.mpObj = append(s.mpObj, MpObj{M: &s.mp[len(s.mp)-1]})
	s.locObj = append(s.locObj, LocObj{L: &s.loc[len(s.loc)-1]})
	return &s.mpObj[len(s.mpObj)-1], &s.locObj[len(s.locObj)-1]
}

// leaf returns cell's LeafObj over the bodies idx lists. Idx is idx itself,
// clipped: both are read-only once the distribution is built.
func (s *slabs) leaf(cell int32, idx []int32, bodies []nbody.Body) *LeafObj {
	lo := len(s.z)
	for _, bi := range idx {
		s.z = append(s.z, Z(&bodies[bi]))
		s.q = append(s.q, bodies[bi].Mass)
	}
	hi := len(s.z)
	s.leaves = append(s.leaves, LeafObj{Cell: cell, Idx: idx[:len(idx):len(idx)], Z: s.z[lo:hi:hi], Q: s.q[lo:hi:hi]})
	return &s.leaves[len(s.leaves)-1]
}

// cellRef names one cell of the quadtree.
type cellRef struct {
	L int32
	C int32
}

// Dist is the distributed form of one FMM step: all expansions and leaf
// payloads placed in the global space, cells and bodies partitioned into
// Morton-contiguous zones weighted by body count.
type Dist struct {
	G      Grid
	Prm    Params
	Bodies []nbody.Body
	Space  *gptr.Space

	LeafBody [][]int32
	Below    [][]int32
	Owner    [][]int32 // [level][cell]

	MpPtr   [][]gptr.Ptr
	LocPtr  [][]gptr.Ptr
	LeafPtr []gptr.Ptr

	mp  [][]*Multipole
	loc [][]*Local

	// Per node: owned leaf cells, and owned non-empty cells per level.
	OwnedLeaves [][]int32
	OwnedCells  [][][]int32 // [node][level] -> cells
	// Per node: the M2L/P2P work list (all levels concatenated), the
	// top-level concurrent loop of the interaction phase.
	WorkList [][]cellRef
}

// Distribute prepares one step for the given node count.
func Distribute(bodies []nbody.Body, prm Params, nodes int) *Dist {
	g := Grid{L: prm.Levels}
	d := &Dist{G: g, Prm: prm, Bodies: bodies, Space: gptr.NewSpace(nodes)}

	// Each leaf's bodies, in index order: counted, then cut from one array.
	nLeaves := g.CellsAt(g.L)
	leafOf := make([]int32, len(bodies))
	counts := make([]int, nLeaves)
	for i := range bodies {
		c := g.LeafOf(bodies[i].Pos[0], bodies[i].Pos[1])
		leafOf[i] = int32(c)
		counts[c]++
	}
	d.LeafBody = make([][]int32, nLeaves)
	flat := make([]int32, len(bodies))
	at := 0
	for c, k := range counts {
		if k > 0 {
			d.LeafBody[c] = flat[at : at : at+k]
			at += k
		}
	}
	for i, c := range leafOf {
		d.LeafBody[c] = append(d.LeafBody[c], int32(i))
	}
	d.Below = countBelow(g, d.LeafBody)

	// Leaf ownership: contiguous Morton zones with balanced body counts.
	order := make([]int, nLeaves)
	weight := make([]float64, nLeaves)
	for c := range order {
		order[c] = c
		weight[c] = 1 + float64(len(d.LeafBody[c]))
	}
	leafOwner := nbody.CostZones(order, weight, nodes)
	// Internal cells: owner of the first descendant leaf.
	d.Owner = make([][]int32, g.L+1)
	d.Owner[g.L] = leafOwner
	for l := g.L - 1; l >= 2; l-- {
		d.Owner[l] = make([]int32, g.CellsAt(l))
		for c := range d.Owner[l] {
			d.Owner[l][c] = leafOwner[c<<(2*(g.L-l))]
		}
	}

	// Count what each node holds first. Its heap takes two objects per
	// non-empty cell and one more per non-empty leaf. run[k+1] counts, and
	// then bounds, the non-empty cells of owner n at level l, k = n·(L+1)+l:
	// the per-node work lists below are windows of one array in (node,
	// level) order.
	perOwner := make([]int, nodes)
	run := make([]int, nodes*(g.L+1)+1)
	cells, leaves := 0, 0
	for l := 2; l <= g.L; l++ {
		for c, k := range d.Below[l] {
			if k == 0 {
				continue
			}
			n := int(d.Owner[l][c])
			cells++
			run[n*(g.L+1)+l+1]++
			perOwner[n] += 2
			if l == g.L {
				leaves++
				perOwner[n]++
			}
		}
	}
	for n, k := range perOwner {
		d.Space.Reserve(n, k)
	}
	// Allocate global objects: every non-empty cell's multipole and local
	// expansion in its owner's heap, leaf bodies inline.
	sl := newSlabs(cells, leaves, len(bodies), prm.Terms)
	d.mp = make([][]*Multipole, g.L+1)
	d.loc = make([][]*Local, g.L+1)
	d.MpPtr = make([][]gptr.Ptr, g.L+1)
	d.LocPtr = make([][]gptr.Ptr, g.L+1)
	for l := 2; l <= g.L; l++ {
		n := g.CellsAt(l)
		d.mp[l] = make([]*Multipole, n)
		d.loc[l] = make([]*Local, n)
		d.MpPtr[l] = make([]gptr.Ptr, n)
		d.LocPtr[l] = make([]gptr.Ptr, n)
		for c := 0; c < n; c++ {
			d.MpPtr[l][c] = gptr.Nil
			d.LocPtr[l][c] = gptr.Nil
			if d.Below[l][c] == 0 {
				continue
			}
			mo, lo := sl.expansions(g.Center(l, c))
			d.mp[l][c], d.loc[l][c] = mo.M, lo.L
			owner := int(d.Owner[l][c])
			d.MpPtr[l][c] = d.Space.Alloc(owner, mo)
			d.LocPtr[l][c] = d.Space.Alloc(owner, lo)
		}
	}
	d.LeafPtr = make([]gptr.Ptr, nLeaves)
	for c := 0; c < nLeaves; c++ {
		d.LeafPtr[c] = gptr.Nil
		bs := d.LeafBody[c]
		if len(bs) == 0 {
			continue
		}
		d.LeafPtr[c] = d.Space.Alloc(int(leafOwner[c]), sl.leaf(int32(c), bs, bodies))
	}

	// Per-node work lists. A node's WorkList visits its levels in turn, so
	// it is one window of refs, and its owned cells at each level one window
	// of ids; its owned leaves are its owned cells at the leaf level.
	for k := 1; k < len(run); k++ {
		run[k] += run[k-1]
	}
	next := slices.Clone(run)
	refs := make([]cellRef, cells)
	ids := make([]int32, cells)
	for l := 2; l <= g.L; l++ {
		for c := 0; c < g.CellsAt(l); c++ {
			if d.Below[l][c] == 0 {
				continue
			}
			k := int(d.Owner[l][c])*(g.L+1) + l
			refs[next[k]], ids[next[k]] = cellRef{L: int32(l), C: int32(c)}, int32(c)
			next[k]++
		}
	}
	d.OwnedLeaves = make([][]int32, nodes)
	d.OwnedCells = make([][][]int32, nodes)
	d.WorkList = make([][]cellRef, nodes)
	lists := make([][]int32, nodes*(g.L+1))
	for n := 0; n < nodes; n++ {
		lo, hi := n*(g.L+1), (n+1)*(g.L+1)
		d.WorkList[n] = refs[run[lo]:run[hi]:run[hi]]
		d.OwnedCells[n] = lists[lo:hi:hi]
		for l := range d.OwnedCells[n] {
			a, b := run[lo+l], run[lo+l+1]
			d.OwnedCells[n][l] = ids[a:b:b]
		}
		d.OwnedLeaves[n] = d.OwnedCells[n][g.L]
	}
	return d
}

// packCell and unpackCell carry a (level, cell) pair in one frame word.
func packCell(l, c int) uint64 { return uint64(l)<<32 | uint64(uint32(c)) }

func unpackCell(w uint64) (l, c int) { return int(w >> 32), int(uint32(w)) }

// Phase runs the full FMM step on one node under the given runtime:
// P2M, upward M2M (level-by-level barriers), the interaction phase
// (M2L + near-field P2P — the paper's "force communication phase",
// strip-mined under DPA), downward L2L, and final L2P. Per-body outputs go
// into field and pot (each node writes only its own bodies).
func Phase(rt driver.Runtime, ep *fm.EP, nd *machine.Node, d *Dist,
	field []complex128, pot []float64) {

	me := nd.ID()
	g := d.G
	cm := d.Prm.Costs
	p := d.Prm.Terms
	pTime := sim.Time(p)
	pSq := pTime * pTime

	// One template per thread-creation site; the frame is the target cell.
	m2m := rt.Template(func(o gptr.Object, tgt, _ uint64) {
		l, c := unpackCell(tgt)
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		d.mp[l][c].Shift(o.(*MpObj).M)
	})
	m2l := rt.Template(func(o gptr.Object, tgt, _ uint64) {
		l, c := unpackCell(tgt)
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		d.loc[l][c].AddMultipole(o.(*MpObj).M)
	})
	p2p := rt.Template(func(o gptr.Object, leaf, _ uint64) {
		src := o.(*LeafObj)
		for _, bi := range d.LeafBody[leaf] {
			z := Z(&d.Bodies[bi])
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
	l2l := rt.Template(func(o gptr.Object, tgt, _ uint64) {
		l, c := unpackCell(tgt)
		nd.Charge(sim.Compute, cm.TransTerm*pSq)
		d.loc[l][c].ShiftFrom(o.(*LocObj).L)
	})

	// 1. P2M on owned leaves (pure local work).
	for _, c := range d.OwnedLeaves[me] {
		m := d.mp[g.L][c]
		nd.Touch(d.LeafPtr[c].Key())
		for _, bi := range d.LeafBody[c] {
			m.AddSource(Z(&d.Bodies[bi]), d.Bodies[bi].Mass)
			nd.Charge(sim.Compute, cm.P2MTerm*pTime)
		}
	}
	ep.Barrier()

	// 2. Upward M2M: each level reads the (finalized) level below.
	for l := g.L - 1; l >= 2; l-- {
		cells := d.OwnedCells[me][l]
		rt.ForAll(len(cells), func(k int) {
			c := int(cells[k])
			for j := 0; j < 4; j++ {
				child := ChildBase(c) + j
				if d.Below[l+1][child] == 0 {
					continue
				}
				rt.SpawnT(d.MpPtr[l+1][child], m2m, packCell(l, c), 0)
			}
		})
		ep.Barrier()
	}

	// 3. Interaction phase: M2L over the interaction lists plus P2P over
	// neighbor leaves. One strip-mined top-level loop over owned cells.
	work := d.WorkList[me]
	var ibuf, nbuf []int
	rt.ForAll(len(work), func(k int) {
		ref := work[k]
		l, c := int(ref.L), int(ref.C)
		ibuf = g.InteractionList(l, c, ibuf[:0])
		for _, q := range ibuf {
			if d.Below[l][q] == 0 {
				continue
			}
			rt.SpawnT(d.MpPtr[l][q], m2l, packCell(l, c), 0)
		}
		if l != g.L {
			return
		}
		// Near field at leaves: direct interactions with neighbor bodies.
		nbuf = g.Neighbors(g.L, c, nbuf[:0])
		nbuf = append(nbuf, c)
		for _, q := range nbuf {
			if len(d.LeafBody[q]) == 0 {
				continue
			}
			rt.SpawnT(d.LeafPtr[q], p2p, uint64(c), 0)
		}
	})
	ep.Barrier()

	// 4. Downward L2L: each level reads the finalized level above.
	for l := 3; l <= g.L; l++ {
		cells := d.OwnedCells[me][l]
		rt.ForAll(len(cells), func(k int) {
			c := int(cells[k])
			parent := Parent(c)
			if d.Below[l-1][parent] == 0 {
				return
			}
			rt.SpawnT(d.LocPtr[l-1][parent], l2l, packCell(l, c), 0)
		})
		ep.Barrier()
	}

	// 5. L2P on owned leaves (pure local work).
	for _, c := range d.OwnedLeaves[me] {
		loc := d.loc[g.L][c]
		for _, bi := range d.LeafBody[c] {
			z := Z(&d.Bodies[bi])
			field[bi] += loc.EvalDeriv(z)
			pot[bi] += real(loc.Eval(z))
			nd.Charge(sim.Compute, cm.L2PTerm*pTime)
		}
	}
}

// RunStep simulates one FMM step on the given machine under spec and
// returns the merged run statistics and the per-body result.
func RunStep(mcfg machine.Config, spec driver.Spec, bodies []nbody.Body, prm Params) (stats.Run, *Result) {
	return runStep(mcfg, spec, bodies, prm, nil)
}

func runStep(mcfg machine.Config, spec driver.Spec, bodies []nbody.Body, prm Params,
	ps *driver.PriorStore) (stats.Run, *Result) {
	d := Distribute(bodies, prm, mcfg.Nodes)
	field := make([]complex128, len(bodies))
	pot := make([]float64, len(bodies))
	run := driver.RunPhase(mcfg, d.Space, spec, func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
		Phase(rt, ep, nd, d, field, pot)
	}, driver.WithPriors(ps, "fmm"))
	return run, &Result{Field: field, Pot: pot}
}

// RunSteps simulates `steps` repeated FMM steps under spec, sharing one
// cross-phase prior store across them, and returns the merged statistics and
// the last step's result. Body positions are held fixed between steps — the
// repeated-phase regime of a time-stepped code whose per-step motion is
// small, which is exactly where the planner's cross-phase prior applies; the
// tree is re-distributed from scratch each step, so nothing but the prior
// store survives a step boundary.
func RunSteps(mcfg machine.Config, spec driver.Spec, bodies []nbody.Body, steps int, prm Params) (stats.Run, *Result) {
	ps := driver.NewPriorStore()
	defer ps.Close()
	var total stats.Run
	var res *Result
	for s := 0; s < steps; s++ {
		run, r := runStep(mcfg, spec, bodies, prm, ps)
		total.Merge(run)
		res = r
	}
	return total, res
}
