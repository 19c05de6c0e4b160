package bh

import (
	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// CellObj is the octree cell as a global object. Leaf cells carry their
// bodies with them — the paper's codes benefit from inline allocation of
// objects ("to enlarge object granularity that amortizes object access
// overhead and simplifies communication of object state"), and we follow
// suit: one leaf fetch delivers all its bodies. The payload slices are
// windows, capacity-clipped, into three flat arrays Distribute fills in
// leaf order, and the CellObjs themselves are one slab, so a distributed
// tree costs a fixed number of allocations whatever its size. Idx and Leaf
// share the word after Child: 256 bytes a cell (TestCellObjSize).
type CellObj struct {
	Center [3]float64
	Half   float64
	Mass   float64
	COM    [3]float64
	Quad   [6]float64
	Child  [8]gptr.Ptr
	Idx    int32
	Leaf   bool

	// Leaf payload (the bodies the leaf carries).
	BIdx  []int32
	BPos  [][3]float64
	BMass []float64
}

// ByteSize models the serialized size: internal cells are dominated by the
// summary and eight child pointers; leaves by their inline bodies.
func (c *CellObj) ByteSize() int {
	if c.Leaf {
		return 64 + 36*len(c.BIdx)
	}
	return 136
}

// Dist is the distributed form of a tree: every cell placed in the global
// space, bodies partitioned into per-node costzones.
type Dist struct {
	T          *Tree
	Space      *gptr.Space
	Ptrs       []gptr.Ptr // per cell index
	BodyOwner  []int32
	LocalBody  [][]int32 // per node, in body index order
	ReplDepth  int32
	Replicated int // number of replicated cells
}

// cellSlabs is what Distribute carves every CellObj and leaf payload from:
// objs holds a CellObj per cell, taken in pre-order from obj on (parents
// before children, so a traversal from the root walks memory forward), and
// the leaf arrays hold every body once, in leaf order from at on.
type cellSlabs struct {
	objs  []CellObj
	bidx  []int32
	bpos  [][3]float64
	bmass []float64
	obj   int
	at    int
}

// Distribute partitions bodies into costzones (weighted by cost, nil for
// unit weights), assigns every cell to the owner of its first body, and
// replicates cells shallower than replDepth on all nodes (the standard
// "upper tree is locally essential everywhere" idiom).
func Distribute(t *Tree, nodes int, replDepth int, cost []float64) *Dist {
	d := &Dist{
		T:         t,
		Space:     gptr.NewSpace(nodes),
		Ptrs:      make([]gptr.Ptr, len(t.Cells)),
		ReplDepth: int32(replDepth),
	}
	d.BodyOwner = nbody.Partition(t.Bodies, cost, nodes, func(b nbody.Body) uint64 {
		return nbody.Morton3D(b.Pos, t.Min, t.Size)
	})
	// Count first, then cut: each node's bodies and each heap's cells.
	counts := make([]int, nodes)
	for _, o := range d.BodyOwner {
		counts[o]++
	}
	local := make([]int32, len(d.BodyOwner))
	d.LocalBody = make([][]int32, nodes)
	at := 0
	for o, k := range counts {
		d.LocalBody[o] = local[at : at : at+k]
		at += k
	}
	for i, o := range d.BodyOwner {
		d.LocalBody[o] = append(d.LocalBody[o], int32(i))
	}
	clear(counts)
	for ci := range t.Cells {
		if o, repl := d.home(&t.Cells[ci]); !repl {
			counts[o]++
		}
	}
	for o, k := range counts {
		d.Space.Reserve(o, k)
	}
	n := len(t.Bodies)
	d.place(t.Root, &cellSlabs{
		objs:  make([]CellObj, len(t.Cells)),
		bidx:  make([]int32, n),
		bpos:  make([][3]float64, n),
		bmass: make([]float64, n),
	})
	return d
}

// home returns the node whose heap holds cell c — the owner of its first
// body — or repl for a cell shallower than the replication depth.
func (d *Dist) home(c *Cell) (owner int, repl bool) {
	if c.Depth < d.ReplDepth {
		return 0, true
	}
	if c.FirstBody >= 0 {
		owner = int(d.BodyOwner[c.FirstBody])
	}
	return owner, false
}

// place allocates cells post-order (children before parents, so parents can
// embed child pointers).
func (d *Dist) place(ci int32, s *cellSlabs) gptr.Ptr {
	c := &d.T.Cells[ci]
	obj := &s.objs[s.obj]
	s.obj++
	*obj = CellObj{
		Idx:    ci,
		Center: c.Center,
		Half:   c.Half,
		Mass:   c.Mass,
		COM:    c.COM,
		Quad:   c.Quad,
		Leaf:   c.Leaf,
	}
	for i := range obj.Child {
		obj.Child[i] = gptr.Nil
	}
	if c.Leaf {
		lo := s.at
		for _, bi := range c.Body {
			b := &d.T.Bodies[bi]
			s.bidx[s.at], s.bpos[s.at], s.bmass[s.at] = bi, b.Pos, b.Mass
			s.at++
		}
		if hi := s.at; hi > lo {
			obj.BIdx, obj.BPos, obj.BMass = s.bidx[lo:hi:hi], s.bpos[lo:hi:hi], s.bmass[lo:hi:hi]
		}
	} else {
		for i, ch := range c.Child {
			if ch != -1 {
				obj.Child[i] = d.place(ch, s)
			}
		}
	}
	var p gptr.Ptr
	if owner, repl := d.home(c); repl {
		p = d.Space.AllocReplicated(obj)
		d.Replicated++
	} else {
		p = d.Space.Alloc(owner, obj)
	}
	d.Ptrs[ci] = p
	return p
}

// Params bundles the physical and algorithmic parameters of a run.
type Params struct {
	Theta     float64 // opening criterion
	Eps       float64 // softening
	Quad      bool    // apply quadrupole corrections to body-cell terms
	LeafCap   int
	ReplDepth int
	DT        float64 // leapfrog step
	Costs     CostModel
}

// DefaultParams matches the SPLASH-2 style configuration.
func DefaultParams() Params {
	return Params{
		Theta:     1.0,
		Eps:       0.05,
		LeafCap:   4,
		ReplDepth: 1, // only the root is replicated; the runtimes handle all other locality
		DT:        0.025,
		Costs:     DefaultCosts(),
	}
}

// ForcePhase computes accelerations for the node's local bodies under the
// given runtime, writing into acc (indexed by body). This is the paper's
// measured phase: a strip-mined top-level concurrent loop over bodies, each
// iteration a data-dependent traversal decomposed into cell-labeled
// non-blocking threads. If work is non-nil, per-body interaction counts are
// recorded into it (the weights for next step's costzones).
func ForcePhase(rt driver.Runtime, nd *machine.Node, d *Dist, p Params, acc [][3]float64, work []float64) {
	local := d.LocalBody[nd.ID()]
	rootPtr := d.Ptrs[d.T.Root]
	cm := p.Costs
	// One template for the whole traversal: the frame is the body index.
	var walk int
	walk = rt.Template(func(o gptr.Object, b, _ uint64) {
		bi := int32(b)
		pos := d.T.Bodies[bi].Pos
		c := o.(*CellObj)
		nd.Charge(sim.Compute, cm.OpenTest)
		if open(2*c.Half, c.COM, pos, p.Theta) {
			if c.Leaf {
				for j := range c.BIdx {
					if c.BIdx[j] == bi {
						continue
					}
					nd.Charge(sim.Compute, cm.BodyBody)
					a := Accel(pos, c.BPos[j], c.BMass[j], p.Eps)
					for dd := 0; dd < 3; dd++ {
						acc[bi][dd] += a[dd]
					}
					if work != nil {
						work[bi]++
					}
				}
				return
			}
			for _, ch := range c.Child {
				if !ch.IsNil() {
					rt.SpawnT(ch, walk, b, 0)
				}
			}
			return
		}
		nd.Charge(sim.Compute, cm.BodyCell)
		a := Accel(pos, c.COM, c.Mass, p.Eps)
		for dd := 0; dd < 3; dd++ {
			acc[bi][dd] += a[dd]
		}
		if p.Quad {
			nd.Charge(sim.Compute, cm.QuadExtra)
			aq := AccelQuad(pos, c.COM, c.Quad, p.Eps)
			for dd := 0; dd < 3; dd++ {
				acc[bi][dd] += aq[dd]
			}
		}
		if work != nil {
			work[bi]++
		}
	})
	rt.ForAll(len(local), func(k int) {
		rt.SpawnT(rootPtr, walk, uint64(local[k]), 0)
	})
}

// RunSteps simulates `steps` force-computation phases of Barnes-Hut on the
// given machine under spec, rebuilding the tree and advancing bodies
// between phases (rebuild and integration are host-side and uncharged, as
// the paper measures only the force phase). Bodies are partitioned with
// costzones weighted by the previous step's per-body interaction counts,
// as in SPLASH-2 (the first step uses unit weights). It returns the merged
// run.
func RunSteps(mcfg machine.Config, spec driver.Spec, bodies []nbody.Body, steps int, p Params) stats.Run {
	var total stats.Run
	cur := make([]nbody.Body, len(bodies))
	copy(cur, bodies)
	var cost []float64
	ps := driver.NewPriorStore() // cross-phase priors for repeated force phases
	defer ps.Close()
	for s := 0; s < steps; s++ {
		t := Build(cur, p.LeafCap)
		d := Distribute(t, mcfg.Nodes, p.ReplDepth, cost)
		acc := make([][3]float64, len(cur))
		work := make([]float64, len(cur))
		run := driver.RunPhase(mcfg, d.Space, spec, func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
			ForcePhase(rt, nd, d, p, acc, work)
		}, driver.WithPriors(ps, "force"))
		total.Merge(run)
		nbody.Leapfrog(cur, acc, p.DT)
		cost = work
	}
	return total
}

// SeqSteps simulates the sequential reference: one node, recursive
// traversal, no runtime overheads. Its makespan is the speedup denominator
// (the paper's 97.84 s configuration).
func SeqSteps(bodies []nbody.Body, steps int, p Params) stats.Run {
	var total stats.Run
	work := make([]nbody.Body, len(bodies))
	copy(work, bodies)
	mcfg := machine.DefaultT3D(1)
	for s := 0; s < steps; s++ {
		t := Build(work, p.LeafCap)
		acc := make([][3]float64, len(work))
		m := machine.New(mcfg)
		makespan, err := m.Run(func(nd *machine.Node) {
			for i := range work {
				nd.Touch(uint64(i)) // body load
				acc[i] = t.ForceOn(int32(i), p.Theta, p.Eps, p.Quad, p.Costs, nd.Charge, nil)
			}
		})
		m.Close()
		if err != nil {
			panic(err) // single-node baseline cannot legitimately deadlock
		}
		total.Merge(stats.Collect(m, makespan))
		nbody.Leapfrog(work, acc, p.DT)
	}
	return total
}
