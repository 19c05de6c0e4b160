// Package em3d implements the EM3D kernel from the Olden suite — the
// canonical pointer-based benchmark of the software-caching systems the
// paper compares against ([3] in its bibliography). EM3D models
// electromagnetic wave propagation on an irregular bipartite graph: E nodes
// and H nodes, each holding a value and a list of weighted global pointers
// to nodes of the other kind. One iteration updates every E node from its
// H neighbors, then every H node from its E neighbors:
//
//	e.value -= Σ_j coeff_j · h_j.value     (then symmetrically for H)
//
// Each neighbor dereference is a remote read when the neighbor lives on
// another machine node, making EM3D a sharp test of the runtimes'
// communication optimizations: there is little computation to hide behind,
// so message overhead, aggregation, and reuse dominate.
package em3d

import (
	"math"
	"math/rand"

	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// GraphNode is one E or H node in the global space.
type GraphNode struct {
	Idx   int32
	Value float64
	// Deps are global pointers to the other-kind nodes this node reads.
	Deps  []gptr.Ptr
	Coeff []float64
}

// ByteSize models the transferred object (value plus header; neighbor
// pointer lists stay home — only consumers of Value fetch the node).
func (n *GraphNode) ByteSize() int { return 24 }

// Params configures the graph.
type Params struct {
	// NodesPerKind is the number of E nodes (and of H nodes).
	NodesPerKind int
	// Degree is the number of dependencies per node.
	Degree int
	// LocalFrac is the probability that a dependency stays on the same
	// machine node (Olden's "% local" parameter).
	LocalFrac float64
	// Seed makes graph construction deterministic.
	Seed int64
	// UpdateCost is cycles per neighbor accumulation.
	UpdateCost sim.Time
}

// DefaultParams matches the classic Olden configuration shape.
func DefaultParams(n int) Params {
	return Params{
		NodesPerKind: n,
		Degree:       10,
		LocalFrac:    0.75,
		Seed:         7,
		UpdateCost:   90,
	}
}

// Graph is a built EM3D instance distributed over machine nodes.
type Graph struct {
	Prm   Params
	Nodes int
	Space *gptr.Space
	// EPtr/HPtr index the global pointers by node index; owners are
	// blocked: machine node m owns indices [m·per, (m+1)·per).
	EPtr []gptr.Ptr
	HPtr []gptr.Ptr
	E    []*GraphNode
	H    []*GraphNode
	per  int
}

// Build constructs a deterministic bipartite graph distributed over the
// given number of machine nodes. The graph nodes and their dependency lists
// are carved from three slabs (E[i] and H[i] side by side, then their lists),
// one allocation each rather than three per graph node, and each heap is
// reserved for its owner's block.
func Build(prm Params, nodes int) *Graph {
	rng := rand.New(rand.NewSource(prm.Seed))
	n, deg := prm.NodesPerKind, prm.Degree
	g := &Graph{
		Prm:   prm,
		Nodes: nodes,
		Space: gptr.NewSpace(nodes),
		EPtr:  make([]gptr.Ptr, n),
		HPtr:  make([]gptr.Ptr, n),
		E:     make([]*GraphNode, n),
		H:     make([]*GraphNode, n),
		per:   (n + nodes - 1) / nodes,
	}
	for m := 0; m < nodes; m++ {
		lo, hi := g.ownedRange(m)
		g.Space.Reserve(m, 2*(hi-lo))
	}
	slab := make([]GraphNode, 2*n)
	for i := 0; i < n; i++ {
		g.E[i], g.H[i] = &slab[2*i], &slab[2*i+1]
		*g.E[i] = GraphNode{Idx: int32(i), Value: rng.Float64()}
		*g.H[i] = GraphNode{Idx: int32(i), Value: rng.Float64()}
		owner := i / g.per
		g.EPtr[i] = g.Space.Alloc(owner, g.E[i])
		g.HPtr[i] = g.Space.Alloc(owner, g.H[i])
	}
	deps := make([]gptr.Ptr, 2*n*deg)
	coeffs := make([]float64, 2*n*deg)
	// Wire dependencies: mostly within the owner's block, the rest uniform.
	// Graph node k of the slab takes the k-th run of deg entries of each.
	wire := func(k, self int, other []gptr.Ptr) {
		owner := self / g.per
		lo := owner * g.per
		hi := lo + g.per
		if hi > n {
			hi = n
		}
		at, end := k*deg, (k+1)*deg
		slab[k].Deps, slab[k].Coeff = deps[at:end:end], coeffs[at:end:end]
		for d := 0; d < deg; d++ {
			var j int
			if rng.Float64() < prm.LocalFrac {
				j = lo + rng.Intn(hi-lo)
			} else {
				j = rng.Intn(n)
			}
			slab[k].Deps[d] = other[j]
			slab[k].Coeff[d] = rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		wire(2*i, i, g.HPtr)
		wire(2*i+1, i, g.EPtr)
	}
	return g
}

// ownedRange returns the index block owned by machine node m.
func (g *Graph) ownedRange(m int) (lo, hi int) {
	lo = m * g.per
	hi = lo + g.per
	if hi > g.Prm.NodesPerKind {
		hi = g.Prm.NodesPerKind
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Values returns copies of the current E and H values.
func (g *Graph) Values() (e, h []float64) {
	e = make([]float64, len(g.E))
	h = make([]float64, len(g.H))
	for i := range g.E {
		e[i] = g.E[i].Value
		h[i] = g.H[i].Value
	}
	return e, h
}

// seqHalf updates every node of ns from its dependencies, in place. Within
// a half-step only the other kind is read, so in-place update is safe.
func (g *Graph) seqHalf(ns []*GraphNode) {
	for _, n := range ns {
		var acc float64
		for d := range n.Deps {
			dep := g.Space.Get(n.Deps[d]).(*GraphNode)
			acc += n.Coeff[d] * dep.Value
		}
		n.Value -= acc
	}
}

// SeqIterate runs iters E/H update pairs sequentially on the host over a
// fresh copy of the graph for the given machine-node count (graph wiring
// depends on the ownership blocks), returning the final values — the
// correctness reference for RunIters on the same node count.
func SeqIterate(prm Params, nodes, iters int) (e, h []float64) {
	g := Build(prm, nodes)
	for it := 0; it < iters; it++ {
		g.seqHalf(g.E)
		g.seqHalf(g.H)
	}
	return g.Values()
}

// SeqStep simulates one E/H pair on a one-node machine (the speedup
// baseline), charging UpdateCost per accumulation.
func SeqStep(prm Params) stats.Run {
	g := Build(prm, 1)
	m := machine.New(machine.DefaultT3D(1))
	defer m.Close()
	makespan, err := m.Run(func(nd *machine.Node) {
		for _, ns := range [][]*GraphNode{g.E, g.H} {
			for _, n := range ns {
				nd.Touch(uint64(n.Idx))
				var acc float64
				for d := range n.Deps {
					dep := g.Space.Get(n.Deps[d]).(*GraphNode)
					nd.Charge(sim.Compute, prm.UpdateCost)
					acc += n.Coeff[d] * dep.Value
				}
				n.Value -= acc
			}
		}
	})
	if err != nil {
		panic(err) // single-node baseline cannot legitimately deadlock
	}
	return stats.Collect(m, makespan)
}

// RunIters simulates iters E/H pairs under spec on an n-node machine. Each
// half-step is one SPMD phase (fresh runtimes per phase, so cached copies
// never go stale across the value updates); updates are applied by owners
// between phases. It returns the merged statistics and the graph (for
// value checks).
func RunIters(mcfg machine.Config, spec driver.Spec, prm Params, iters int) (stats.Run, *Graph) {
	g := Build(prm, mcfg.Nodes)
	var total stats.Run
	ps := driver.NewPriorStore() // cross-phase priors: E halves seed E, H halves seed H
	defer ps.Close()
	acc := make([]float64, prm.NodesPerKind)
	var ns []*GraphNode // the half-step's kind
	loops := make([]nodeLoop, mcfg.Nodes)
	for i := range loops {
		l := &loops[i]
		l.acc, l.cost, l.g, l.ns = acc, prm.UpdateCost, g, &ns
		l.tmpl, l.iter = l.accumulate, l.spawn
	}
	body := func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) { loops[nd.ID()].phase(rt, nd) }
	for it := 0; it < iters; it++ {
		for _, half := range []struct {
			kind string
			ns   []*GraphNode
		}{{"E", g.E}, {"H", g.H}} {
			clear(acc)
			ns = half.ns
			total.Merge(driver.RunPhase(mcfg, g.Space, spec, body, driver.WithPriors(ps, half.kind)))
			for i := range half.ns {
				half.ns[i].Value -= acc[i]
			}
		}
	}
	return total, g
}

// nodeLoop is one machine node's phase body for a whole run. Its template
// function and loop body are bound to it once, before the first phase, and
// read the phase's runtime and node from it, so a phase only registers the
// template again. What every thread reads comes first.
type nodeLoop struct {
	nd     *machine.Node
	acc    []float64 // the run's accumulators, cleared before each half-step
	cost   sim.Time
	rt     driver.Runtime
	g      *Graph
	ns     *[]*GraphNode // the current half-step's kind
	lo     int
	update int // this phase's template id
	tmpl   func(o gptr.Object, i, coeff uint64)
	iter   func(k int)
}

// phase runs the node's half of one half-step: one template per node, whose
// frame is the accumulating node's index and the edge coefficient's bits.
func (l *nodeLoop) phase(rt driver.Runtime, nd *machine.Node) {
	l.rt, l.nd = rt, nd
	l.update = rt.Template(l.tmpl)
	lo, hi := l.g.ownedRange(nd.ID())
	l.lo = lo
	rt.ForAll(hi-lo, l.iter)
}

func (l *nodeLoop) accumulate(o gptr.Object, i, coeff uint64) {
	l.nd.Charge(sim.Compute, l.cost)
	l.acc[i] += math.Float64frombits(coeff) * o.(*GraphNode).Value
}

func (l *nodeLoop) spawn(k int) {
	n := (*l.ns)[l.lo+k]
	for d := range n.Deps {
		l.rt.SpawnT(n.Deps[d], l.update, uint64(n.Idx), math.Float64bits(n.Coeff[d]))
	}
}
