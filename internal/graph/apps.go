package graph

import (
	"dpa/internal/driver"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Damping is the PageRank damping factor.
const Damping = 0.85

// maxRounds bounds the BFS/CC phase loops against pathological inputs; both
// converge in at most Vertices rounds on any graph.
func (g *Graph) maxRounds() int { return g.Prm.Vertices }

// pullRun is what the pull phases of one run share: the callbacks the
// current phase's threads apply, and each machine node's phase body, bound
// once per run.
type pullRun struct {
	g      *Graph
	active func(v int) bool
	pull   func(v int, nb *Vertex)
	nodes  []pullNode
	body   func(rt driver.Runtime, ep *fm.EP, nd *machine.Node)
}

// pullNode is one machine node's phase body for a whole run. Its template
// function and loop body are bound to it once, before the first phase, and
// read the phase's runtime and node from it, so a phase only registers the
// template again.
type pullNode struct {
	r     *pullRun
	rt    driver.Runtime
	nd    *machine.Node
	lo    int
	visit int // this phase's template id
	tmpl  func(o gptr.Object, v, _ uint64)
	iter  func(k int)
}

func (g *Graph) newPullRun(nodes int) *pullRun {
	r := &pullRun{g: g, nodes: make([]pullNode, nodes)}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.r = r
		n.tmpl, n.iter = n.apply, n.spawn
	}
	r.body = func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) { r.nodes[nd.ID()].phase(rt, nd) }
	return r
}

// phase runs one pull-direction SPMD phase over the owned vertex ranges:
// every owned vertex v that active admits (nil: all) spawns one thread per
// neighbor, which charges UpdateCost and hands the neighbor to pull. The
// thread is one template per node, its frame the vertex. Every phase
// iterates the full owned range (constant trip count), so the prior's
// affinity arrays stay valid across the repeated phases of one kind.
func (r *pullRun) phase(mcfg machine.Config, spec driver.Spec, ps *driver.PriorStore,
	kind string, active func(v int) bool, pull func(v int, nb *Vertex)) stats.Run {
	r.active, r.pull = active, pull
	return driver.RunPhase(mcfg, r.g.Space, spec, r.body, driver.WithPriors(ps, kind))
}

func (n *pullNode) phase(rt driver.Runtime, nd *machine.Node) {
	n.rt, n.nd = rt, nd
	n.visit = rt.Template(n.tmpl)
	lo, hi := n.r.g.ownedRange(nd.ID())
	n.lo = lo
	rt.ForAll(hi-lo, n.iter)
}

func (n *pullNode) apply(o gptr.Object, v, _ uint64) {
	n.nd.Charge(sim.Compute, n.r.g.Prm.UpdateCost)
	n.r.pull(int(v), o.(*Vertex))
}

func (n *pullNode) spawn(k int) {
	v := n.lo + k
	if n.r.active != nil && !n.r.active(v) {
		return
	}
	g := n.r.g
	for _, u := range g.Adj[v] {
		n.rt.SpawnT(g.Ptrs[u], n.visit, uint64(v), 0)
	}
}

// RunBFS simulates a level-synchronous breadth-first search from source
// under spec on an mcfg machine. Each level is one pull-direction phase:
// every unvisited owned vertex probes its neighbors' levels through global
// pointers and joins the next frontier if any neighbor sits on the current
// one. Owners apply level updates between phases. It returns the merged
// statistics and the vertex levels (-1 = unreached).
func RunBFS(mcfg machine.Config, spec driver.Spec, prm Params, source int) (stats.Run, []int32) {
	g := Build(prm, mcfg.Nodes)
	dist := make([]int32, prm.Vertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	g.Verts[source].Label = 0

	var total stats.Run
	ps := driver.NewPriorStore()
	defer ps.Close()
	next := make([]bool, prm.Vertices)
	r := g.newPullRun(mcfg.Nodes)
	for level := int32(0); int(level) < g.maxRounds(); level++ {
		clear(next)
		level := level
		run := r.phase(mcfg, spec, ps, "bfs",
			func(v int) bool { return dist[v] < 0 },
			func(v int, nb *Vertex) {
				if nb.Label == level {
					next[v] = true
				}
			})
		total.Merge(run)
		frontier := 0
		for v := range next {
			if next[v] && dist[v] < 0 {
				dist[v] = level + 1
				g.Verts[v].Label = level + 1
				frontier++
			}
		}
		if frontier == 0 {
			break
		}
	}
	return total, dist
}

// RunPageRank simulates iters synchronous PageRank iterations under spec.
// Each iteration is one phase: every owned vertex pulls its neighbors' rank
// mass through global pointers; owners apply the damped update between
// phases. It returns the merged statistics and the final ranks.
func RunPageRank(mcfg machine.Config, spec driver.Spec, prm Params, iters int) (stats.Run, []float64) {
	g := Build(prm, mcfg.Nodes)
	n := prm.Vertices
	for i := range g.Verts {
		g.Verts[i].Rank = 1 / float64(n)
	}

	var total stats.Run
	ps := driver.NewPriorStore()
	defer ps.Close()
	acc := make([]float64, n)
	r := g.newPullRun(mcfg.Nodes)
	for it := 0; it < iters; it++ {
		clear(acc)
		run := r.phase(mcfg, spec, ps, "pagerank", nil,
			func(v int, nb *Vertex) {
				// A neighbor has at least the edge back to v, so Deg >= 1
				// and the division is safe.
				acc[v] += nb.Rank / float64(nb.Deg)
			})
		total.Merge(run)
		for v := range g.Verts {
			g.Verts[v].Rank = (1-Damping)/float64(n) + Damping*acc[v]
		}
	}
	ranks := make([]float64, n)
	for i := range g.Verts {
		ranks[i] = g.Verts[i].Rank
	}
	return total, ranks
}

// RunCC simulates connected components by Jacobi min-label propagation
// under spec: labels start as vertex ids, every phase each owned vertex
// pulls its neighbors' labels and keeps the minimum, and the loop runs to
// fixpoint. Min is order-independent, so the result is exact on every
// engine. It returns the merged statistics and the component labels.
func RunCC(mcfg machine.Config, spec driver.Spec, prm Params) (stats.Run, []int32) {
	g := Build(prm, mcfg.Nodes)
	n := prm.Vertices
	labels := make([]int32, n)
	for i := range g.Verts {
		labels[i] = int32(i)
		g.Verts[i].Label = int32(i)
	}

	var total stats.Run
	ps := driver.NewPriorStore()
	defer ps.Close()
	acc := make([]int32, n)
	r := g.newPullRun(mcfg.Nodes)
	for round := 0; round < g.maxRounds(); round++ {
		copy(acc, labels)
		run := r.phase(mcfg, spec, ps, "cc", nil,
			func(v int, nb *Vertex) {
				if nb.Label < acc[v] {
					acc[v] = nb.Label
				}
			})
		total.Merge(run)
		changed := false
		for v := range labels {
			if acc[v] < labels[v] {
				labels[v] = acc[v]
				g.Verts[v].Label = acc[v]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return total, labels
}

// SeqBFS is the host-sequential BFS reference over the same deterministic
// graph RunBFS builds for the given node count.
func SeqBFS(prm Params, nodes, source int) []int32 {
	g := Build(prm, nodes)
	dist := make([]int32, prm.Vertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	frontier := []int32{int32(source)}
	for level := int32(0); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range g.Adj[v] {
				if dist[u] < 0 {
					dist[u] = level + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// SeqPageRank is the host-sequential PageRank reference (same update rule
// and schedule as RunPageRank; float accumulation order differs, so compare
// with a tolerance).
func SeqPageRank(prm Params, nodes, iters int) []float64 {
	g := Build(prm, nodes)
	n := prm.Vertices
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			var acc float64
			for _, u := range g.Adj[v] {
				acc += rank[u] / float64(len(g.Adj[u]))
			}
			next[v] = (1-Damping)/float64(n) + Damping*acc
		}
		rank, next = next, rank
	}
	return rank
}

// SeqCC is the host-sequential connected-components reference (union by
// repeated min-label propagation to fixpoint, matching RunCC exactly).
func SeqCC(prm Params, nodes int) []int32 {
	g := Build(prm, nodes)
	n := prm.Vertices
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	for {
		changed := false
		for v := 0; v < n; v++ {
			for _, u := range g.Adj[v] {
				if labels[u] < labels[v] {
					labels[v] = labels[u]
					changed = true
				}
			}
		}
		if !changed {
			return labels
		}
	}
}
