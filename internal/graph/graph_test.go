package graph

import (
	"math"
	"reflect"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/machine"
)

func testParams(v int, kind string) Params {
	prm := DefaultParams(v)
	prm.Kind = kind
	return prm
}

// TestBuildDeterministicFromSeed: equal Params must yield the identical
// graph — adjacency contents and order included — and a different seed a
// different one.
func TestBuildDeterministicFromSeed(t *testing.T) {
	for _, kind := range []string{KindUniform, KindRMAT} {
		a := Build(testParams(512, kind), 8)
		b := Build(testParams(512, kind), 8)
		if !reflect.DeepEqual(a.Adj, b.Adj) {
			t.Fatalf("%s: same seed produced different graphs", kind)
		}
		prm := testParams(512, kind)
		prm.Seed++
		c := Build(prm, 8)
		if reflect.DeepEqual(a.Adj, c.Adj) {
			t.Fatalf("%s: different seeds produced the same graph", kind)
		}
	}
}

// TestPartitionBalance is the partition's contract, over skewed and flat
// graphs, one node, few, many, and more nodes than vertices: the ranges are
// contiguous, disjoint and cover [0, V) in node order; Owner and the vertex
// pointers agree with them; and no node carries more than the mean work plus
// the heaviest single vertex (the prefix-cut guarantee).
func TestPartitionBalance(t *testing.T) {
	for _, kind := range []string{KindRMAT, KindUniform} {
		for _, v := range []int{5, 100, 513, 4096} {
			for _, nodes := range []int{1, 8, 64, 2*v + 1} {
				g := Build(testParams(v, kind), nodes)
				total, heaviest := 0, 0
				for _, l := range g.Adj {
					total += vertexWork(l)
					heaviest = max(heaviest, vertexWork(l))
				}
				next := 0
				for m := 0; m < nodes; m++ {
					lo, hi := g.ownedRange(m)
					if lo != next || hi < lo {
						t.Fatalf("%s v=%d n=%d: node %d owns [%d,%d), want it to start at %d", kind, v, nodes, m, lo, hi, next)
					}
					next = hi
					work := 0
					for x := lo; x < hi; x++ {
						if g.Owner(x) != m || int(g.Ptrs[x].Node) != m {
							t.Fatalf("%s v=%d n=%d: vertex %d in node %d's range has Owner %d and lives on node %d",
								kind, v, nodes, x, m, g.Owner(x), g.Ptrs[x].Node)
						}
						work += vertexWork(g.Adj[x])
					}
					if work*nodes > total+heaviest*nodes {
						t.Fatalf("%s v=%d n=%d: node %d carries %d of %d work units, above the mean plus the heaviest vertex (%d)",
							kind, v, nodes, m, work, total, heaviest)
					}
				}
				if next != v {
					t.Fatalf("%s v=%d n=%d: ranges end at %d", kind, v, nodes, next)
				}
			}
		}
	}
}

// TestEmptyRangesRunToReference: nodes that own nothing — more nodes than
// vertices, a hub heavier than several nodes' shares, a graph of isolated
// vertices — must still run all three apps to the host reference, under the
// planned configuration whose shaping and priors index by owned iteration.
func TestEmptyRangesRunToReference(t *testing.T) {
	spec := driver.DPASpec(50, driver.WithShape())
	for _, c := range []struct {
		name           string
		v, deg, nodes  int
		kind           string
		wantEmptyRange bool
	}{
		{"more nodes than vertices", 6, 8, 8, KindUniform, true},
		{"hub spans several shares", 48, 8, 32, KindRMAT, true},
		{"isolated vertices", 40, 0, 8, KindUniform, false},
	} {
		prm := testParams(c.v, c.kind)
		prm.Degree = c.deg
		g := Build(prm, c.nodes)
		empty := false
		for m := 0; m < c.nodes; m++ {
			lo, hi := g.ownedRange(m)
			empty = empty || lo == hi
		}
		if empty != c.wantEmptyRange {
			t.Fatalf("%s: empty range present = %v, want %v (cuts %v)", c.name, empty, c.wantEmptyRange, g.cut)
		}
		mcfg := machine.DefaultT3D(c.nodes)
		if _, got := RunBFS(mcfg, spec, prm, 0); !reflect.DeepEqual(got, SeqBFS(prm, c.nodes, 0)) {
			t.Errorf("%s: BFS levels diverge from host reference", c.name)
		}
		if _, got := RunCC(mcfg, spec, prm); !reflect.DeepEqual(got, SeqCC(prm, c.nodes)) {
			t.Errorf("%s: CC labels diverge from host reference", c.name)
		}
		_, got := RunPageRank(mcfg, spec, prm, 3)
		for i, want := range SeqPageRank(prm, c.nodes, 3) {
			if math.Abs(got[i]-want) > 1e-12 {
				t.Errorf("%s: rank[%d] = %g, want %g", c.name, i, got[i], want)
				break
			}
		}
	}
}

// TestPlannedPageRankIsBalanced is the end-to-end guard on the benchmark's
// own instance: on the skewed RMAT graph at 64 nodes no node may be busy for
// more than 1.5× the mean (a vertex-count partition reads 9.4 here — node 0
// holds the hubs and the other 63 wait for it at every barrier).
func TestPlannedPageRankIsBalanced(t *testing.T) {
	prm := testParams(16384, KindRMAT)
	prm.Seed = 42
	run, _ := RunPageRank(machine.DefaultT3D(64), driver.DPASpec(50, driver.WithShape()), prm, 2)
	if im, node := run.Imbalance(); im >= 1.5 {
		t.Fatalf("node %d is busy for %.2f× the mean, want < 1.5", node, im)
	}
}

// TestAdjacencyInvariants: sorted, deduplicated, symmetric, loop-free.
func TestAdjacencyInvariants(t *testing.T) {
	for _, kind := range []string{KindUniform, KindRMAT} {
		g := Build(testParams(256, kind), 4)
		for v, l := range g.Adj {
			for i, u := range l {
				if int(u) == v {
					t.Fatalf("%s: self-loop at %d", kind, v)
				}
				if i > 0 && l[i-1] >= u {
					t.Fatalf("%s: adjacency of %d unsorted/dup at %d", kind, v, i)
				}
				found := false
				for _, w := range g.Adj[u] {
					if int(w) == v {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: edge %d-%d not symmetric", kind, v, u)
				}
			}
		}
		if g.Edges() == 0 {
			t.Fatalf("%s: no edges", kind)
		}
		for v := range g.Verts {
			if int(g.Verts[v].Deg) != len(g.Adj[v]) {
				t.Fatalf("%s: Deg mismatch at %d", kind, v)
			}
		}
	}
}

// TestMillionVertexBuild: the generators are sized for 1M+ vertices — build
// one and check the partition still covers it.
func TestMillionVertexBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("million-vertex build")
	}
	prm := testParams(1<<20, KindRMAT)
	prm.Degree = 2
	g := Build(prm, 64)
	if g.Prm.Vertices != 1<<20 || len(g.Verts) != 1<<20 {
		t.Fatalf("built %d vertices", len(g.Verts))
	}
	if _, hi := g.ownedRange(63); hi != 1<<20 {
		t.Fatalf("last range ends at %d", hi)
	}
	const last = 1<<20 - 1
	if lo, hi := g.ownedRange(g.Owner(last)); last < lo || last >= hi {
		t.Fatalf("Owner(%d) = %d, which owns [%d,%d)", last, g.Owner(last), lo, hi)
	}
	if g.Edges() == 0 {
		t.Fatal("no edges")
	}
}

// TestBFSMatchesSeq: simulated BFS levels must equal the host reference
// exactly.
func TestBFSMatchesSeq(t *testing.T) {
	prm := testParams(192, KindRMAT)
	mcfg := machine.DefaultT3D(4)
	want := SeqBFS(prm, 4, 0)
	_, got := RunBFS(mcfg, driver.DPASpec(16), prm, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BFS levels diverge from host reference")
	}
}

// TestCCMatchesSeq: component labels are exact (integer min fixpoint).
func TestCCMatchesSeq(t *testing.T) {
	prm := testParams(160, KindUniform)
	prm.Degree = 2 // sparse: several components
	mcfg := machine.DefaultT3D(4)
	want := SeqCC(prm, 4)
	_, got := RunCC(mcfg, driver.DPASpec(16), prm)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("CC labels diverge from host reference")
	}
}

// TestPageRankMatchesSeq: float accumulation order differs between the
// simulated and host schedules, so compare with a tolerance; mass must be
// conserved up to the dangling-vertex leak.
func TestPageRankMatchesSeq(t *testing.T) {
	prm := testParams(192, KindRMAT)
	mcfg := machine.DefaultT3D(4)
	want := SeqPageRank(prm, 4, 3)
	_, got := RunPageRank(mcfg, driver.DPASpec(16), prm, 3)
	if len(got) != len(want) {
		t.Fatalf("rank length %d", len(got))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("rank[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestGraphAppsCollectStats: the runners must report their fetch traffic.
func TestGraphAppsCollectStats(t *testing.T) {
	prm := testParams(192, KindRMAT)
	mcfg := machine.DefaultT3D(4)
	run, _ := RunPageRank(mcfg, driver.DPASpec(16), prm, 2)
	if run.RT.Fetches == 0 || run.RT.ReqMsgs == 0 || run.RT.ThreadsRun == 0 {
		t.Fatalf("run recorded no traffic: %+v", run.RT)
	}
}

// TestPullBodiesBoundOncePerRun: each node binds its template function and
// loop body on its first phase, so four PageRank iterations more allocate
// fewer than 2 objects per node; bound per phase, the two closures cost 8
// per node over those four phases (600 objects more at 64 nodes). What is
// left is the phases' shared objects and the fetch-record chunks a few
// nodes outgrow in later phases (about 80 objects here).
func TestPullBodiesBoundOncePerRun(t *testing.T) {
	const nodes = 64
	prm := testParams(16*nodes, KindRMAT)
	mcfg := machine.DefaultT3D(nodes)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() { RunPageRank(mcfg, driver.DPASpec(16), prm, iters) })
	}
	two, six := allocs(2), allocs(6)
	t.Logf("%d nodes: %v allocations for 2 iterations, %v for 6", nodes, two, six)
	if extra := six - two; extra >= 2*nodes {
		t.Errorf("4 phases more allocate %v objects more on %d nodes, want fewer than 2 per node", extra, nodes)
	}
}
