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
// million-vertex capable), partitioned over the machine nodes into contiguous
// vertex ranges of equal work (see partition), and traversed as DPA phase
// loops through internal/driver: each
// level/iteration is one SPMD phase with fresh runtimes (cached copies
// never go stale across the value updates), owners apply updates between
// phases, and a PriorStore threads the planner's cross-phase reuse prior
// through the repeated phases. Everything is compatible with both DPA
// policies (the static strip and WithShape's planned mode), fault injection,
// and checkpoints, and runs stay bit-identical across engines, repeats, and
// seeded faults.
package graph

import (
	"math/rand"
	"slices"
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

// Graph is a built instance distributed over machine nodes: node m owns the
// contiguous vertex range [cut[m], cut[m+1]), cut by work rather than by
// vertex count (see partition).
type Graph struct {
	Prm   Params
	Nodes int
	Space *gptr.Space
	// Ptrs[i] is the global pointer to vertex i; Verts[i] the host-side
	// object behind it.
	Ptrs  []gptr.Ptr
	Verts []*Vertex
	// Adj[i] holds vertex i's neighbors, ascending and deduplicated; the
	// graph is undirected (j in Adj[i] iff i in Adj[j]). The lists are
	// windows into one backing array.
	Adj [][]int32
	// cut holds the Nodes+1 range boundaries, ascending from 0 to Vertices.
	cut []int
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
		Adj:   buildAdjacency(prm),
	}
	g.cut = partition(g.Adj, nodes)
	slab := make([]Vertex, prm.Vertices)
	for m := 0; m < nodes; m++ {
		g.Space.Reserve(m, g.cut[m+1]-g.cut[m])
		for i := g.cut[m]; i < g.cut[m+1]; i++ {
			slab[i] = Vertex{Idx: int32(i), Label: -1, Deg: int32(len(g.Adj[i]))}
			g.Verts[i] = &slab[i]
			g.Ptrs[i] = g.Space.Alloc(m, g.Verts[i])
		}
	}
	return g
}

// vertexWork is the work a pull phase does for one owned vertex: one thread
// per adjacency entry, plus one unit for the top-level iteration itself so
// that isolated vertices spread over the nodes too instead of piling up
// wherever the edges leave room.
func vertexWork(l []int32) int { return len(l) + 1 }

// partition cuts [0, V) into nodes contiguous ranges of equal work: boundary
// m is the first vertex at which the running vertexWork total reaches m/nodes
// of the whole. A range therefore carries less than total/nodes plus its last
// vertex's own work — no node is more than the heaviest single vertex above
// the mean. That is also the limit: a hub heavier than total/nodes bounds the
// makespan by itself, and splitting one vertex's adjacency over several nodes
// is out of scope. Ranges may be empty (more nodes than vertices, or a hub
// that spans several nodes' shares).
func partition(adj [][]int32, nodes int) []int {
	total := 0
	for _, l := range adj {
		total += vertexWork(l)
	}
	cut := make([]int, nodes+1)
	v, before := 0, 0 // before: work of the vertices below v
	for m := 1; m < nodes; m++ {
		for v < len(adj) && before*nodes < m*total {
			before += vertexWork(adj[v])
			v++
		}
		cut[m] = v
	}
	cut[nodes] = len(adj)
	return cut
}

// buildAdjacency samples Vertices*Degree/2 undirected edges from the
// configured distribution and returns sorted, deduplicated, symmetric
// adjacency lists with self-loops removed. The draws are stored as an edge
// list and laid out CSR-style in two passes — count, then fill — so the lists
// share one backing array.
func buildAdjacency(prm Params) [][]int32 {
	rng := rand.New(rand.NewSource(prm.Seed))
	v := prm.Vertices
	draws := v * prm.Degree / 2
	edges := make([]int32, 0, 2*draws) // endpoint pairs
	end := make([]int, v+1)            // end[i+1] counts, then bounds, vertex i's entries
	for e := 0; e < draws; e++ {
		var a, b int
		if prm.Kind == KindRMAT {
			a, b = rmatEdge(rng, v)
		} else {
			a, b = rng.Intn(v), rng.Intn(v)
		}
		if a == b {
			continue
		}
		edges = append(edges, int32(a), int32(b))
		end[a+1]++
		end[b+1]++
	}
	for i := 0; i < v; i++ {
		end[i+1] += end[i]
	}
	next := slices.Clone(end[:v]) // fill cursors
	entries := make([]int32, len(edges))
	for e := 0; e < len(edges); e += 2 {
		a, b := edges[e], edges[e+1]
		entries[next[a]] = b
		next[a]++
		entries[next[b]] = a
		next[b]++
	}
	// Sort and deduplicate each list, closing the gaps duplicates leave: the
	// write cursor never passes the read cursor.
	adj := make([][]int32, v)
	w := 0
	for i := range adj {
		l := entries[end[i]:end[i+1]]
		slices.Sort(l)
		lo := w
		for j, u := range l {
			if j > 0 && entries[w-1] == u {
				continue
			}
			entries[w] = u
			w++
		}
		adj[i] = entries[lo:w:w]
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

// ownedRange returns the vertex range owned by machine node m.
func (g *Graph) ownedRange(m int) (lo, hi int) { return g.cut[m], g.cut[m+1] }

// Owner returns the machine node that owns vertex v.
func (g *Graph) Owner(v int) int {
	return sort.Search(g.Nodes, func(m int) bool { return g.cut[m+1] > v })
}

// Edges returns the undirected edge count.
func (g *Graph) Edges() int {
	n := 0
	for i := range g.Adj {
		n += len(g.Adj[i])
	}
	return n / 2
}
