// Package graph opens the distributed graph-analytics workload family
// (ROADMAP item 2): BFS, PageRank, and connected components over partitioned
// graphs. These are exactly the irregular pointer-chasing computations DPA
// targets — a vertex's neighbors live behind global pointers on other
// machine nodes, there is almost no arithmetic to hide communication behind,
// and the access pattern is data-dependent — so they exercise the runtime's
// aggregation, tiling, and reuse machinery harder than the paper's three
// apps.
//
// Graphs are generated deterministically from a seed (uniform or RMAT,
// million-vertex capable), block-partitioned over the machine nodes, and
// traversed as DPA phase loops through internal/driver: each
// level/iteration is one SPMD phase with fresh runtimes (cached copies
// never go stale across the value updates), owners apply updates between
// phases, and a PriorStore threads the planner's cross-phase reuse prior
// through the repeated phases. Everything is compatible with WithAdaptive,
// WithPlanner, WithPrior/WithShape, fault injection, and checkpoints, and
// runs stay bit-identical across engines, repeats, and seeded faults.
package graph

import (
	"math/rand"
	"sort"

	"dpa/internal/gptr"
	"dpa/internal/sim"
)

// Graph kinds accepted by Params.Kind.
const (
	KindUniform = "uniform"
	KindRMAT    = "rmat"
)

// RMAT quadrant probabilities (the Graph500 shape: heavy-tailed degree
// distribution, community structure).
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
	// rmatD is the remainder, 0.05.
)

// Vertex is one graph vertex in the global space. The adjacency list stays
// home with the owner — consumers fetch only the vertex's iteration state,
// which is what ByteSize models.
type Vertex struct {
	Idx int32
	// Label is the app-owned integer state: the BFS level of the vertex
	// (-1 unvisited), or the connected-component label.
	Label int32
	// Deg is the vertex degree (PageRank divides rank by it).
	Deg int32
	// Rank is the PageRank mass.
	Rank float64
}

// ByteSize models the transferred object: idx + label + degree + rank plus
// header, matching the em3d GraphNode footprint.
func (v *Vertex) ByteSize() int { return 24 }

// Params configures graph generation.
type Params struct {
	// Vertices is the vertex count. The generators are million-vertex
	// capable; tests and CI use smaller instances.
	Vertices int
	// Degree is the average degree: Vertices*Degree/2 undirected edges are
	// sampled (duplicates and self-loops removed, so realized degree is
	// slightly lower, much lower on skewed RMAT graphs).
	Degree int
	// Kind selects the edge distribution: KindUniform or KindRMAT.
	Kind string
	// Seed makes generation deterministic: equal Params yield the
	// identical graph, adjacency order included.
	Seed int64
	// UpdateCost is cycles charged per neighbor accumulation.
	UpdateCost sim.Time
}

// DefaultParams returns an RMAT graph of n vertices with average degree 8.
func DefaultParams(n int) Params {
	return Params{
		Vertices:   n,
		Degree:     8,
		Kind:       KindRMAT,
		Seed:       7,
		UpdateCost: 90,
	}
}

// Graph is a built instance distributed over machine nodes: vertex i lives
// on machine node i/per (block partition, the same ownership scheme as the
// paper's apps).
type Graph struct {
	Prm   Params
	Nodes int
	Space *gptr.Space
	// Ptrs[i] is the global pointer to vertex i; Verts[i] the host-side
	// object behind it.
	Ptrs  []gptr.Ptr
	Verts []*Vertex
	// Adj[i] holds vertex i's neighbors, ascending and deduplicated; the
	// graph is undirected (j in Adj[i] iff i in Adj[j]).
	Adj [][]int32
	per int
}

// Build constructs the deterministic partitioned graph.
func Build(prm Params, nodes int) *Graph {
	if prm.Kind == "" {
		prm.Kind = KindRMAT
	}
	g := &Graph{
		Prm:   prm,
		Nodes: nodes,
		Space: gptr.NewSpace(nodes),
		Ptrs:  make([]gptr.Ptr, prm.Vertices),
		Verts: make([]*Vertex, prm.Vertices),
		per:   (prm.Vertices + nodes - 1) / nodes,
	}
	for i := 0; i < prm.Vertices; i++ {
		g.Verts[i] = &Vertex{Idx: int32(i), Label: -1}
		g.Ptrs[i] = g.Space.Alloc(i/g.per, g.Verts[i])
	}
	g.Adj = buildAdjacency(prm)
	for i := range g.Verts {
		g.Verts[i].Deg = int32(len(g.Adj[i]))
	}
	return g
}

// buildAdjacency samples Vertices*Degree/2 undirected edges from the
// configured distribution and returns sorted, deduplicated, symmetric
// adjacency lists with self-loops removed.
func buildAdjacency(prm Params) [][]int32 {
	rng := rand.New(rand.NewSource(prm.Seed))
	v := prm.Vertices
	edges := v * prm.Degree / 2
	adj := make([][]int32, v)
	add := func(a, b int) {
		if a == b {
			return
		}
		adj[a] = append(adj[a], int32(b))
		adj[b] = append(adj[b], int32(a))
	}
	for e := 0; e < edges; e++ {
		var a, b int
		if prm.Kind == KindRMAT {
			a, b = rmatEdge(rng, v)
		} else {
			a, b = rng.Intn(v), rng.Intn(v)
		}
		add(a, b)
	}
	for i := range adj {
		l := adj[i]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		w := 0
		for j := 0; j < len(l); j++ {
			if w > 0 && l[w-1] == l[j] {
				continue
			}
			l[w] = l[j]
			w++
		}
		adj[i] = l[:w:w]
	}
	return adj
}

// rmatEdge draws one directed RMAT edge by recursive quadrant descent over
// the smallest power-of-two square covering [0,v)². Samples falling outside
// the vertex range re-roll (rejection keeps the marginals intact).
func rmatEdge(rng *rand.Rand, v int) (int, int) {
	side := 1
	for side < v {
		side <<= 1
	}
	for {
		a, b := 0, 0
		for half := side / 2; half >= 1; half /= 2 {
			r := rng.Float64()
			switch {
			case r < rmatA:
				// top-left: both stay
			case r < rmatA+rmatB:
				b += half
			case r < rmatA+rmatB+rmatC:
				a += half
			default:
				a += half
				b += half
			}
		}
		if a < v && b < v {
			return a, b
		}
	}
}

// ownedRange returns the vertex block owned by machine node m.
func (g *Graph) ownedRange(m int) (lo, hi int) {
	lo = m * g.per
	hi = lo + g.per
	if hi > g.Prm.Vertices {
		hi = g.Prm.Vertices
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Owner returns the machine node that owns vertex v.
func (g *Graph) Owner(v int) int { return v / g.per }

// Edges returns the undirected edge count.
func (g *Graph) Edges() int {
	n := 0
	for i := range g.Adj {
		n += len(g.Adj[i])
	}
	return n / 2
}
