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

// TestPartitionBalance: the block partition must cover every vertex exactly
// once with at most ceil(V/N) vertices per node and at most one short node
// block (the remainder).
func TestPartitionBalance(t *testing.T) {
	for _, v := range []int{64, 100, 513} {
		const nodes = 8
		g := Build(testParams(v, KindRMAT), nodes)
		per := (v + nodes - 1) / nodes
		covered := 0
		short := 0
		for m := 0; m < nodes; m++ {
			lo, hi := g.ownedRange(m)
			if hi-lo > per {
				t.Fatalf("v=%d: node %d owns %d > ceil(V/N)=%d", v, m, hi-lo, per)
			}
			if hi-lo < per && hi-lo > 0 {
				short++
			}
			for x := lo; x < hi; x++ {
				if g.Owner(x) != m {
					t.Fatalf("v=%d: Owner(%d)=%d, block says %d", v, x, g.Owner(x), m)
				}
			}
			covered += hi - lo
		}
		if covered != v {
			t.Fatalf("v=%d: partition covers %d vertices", v, covered)
		}
		if short > 1 {
			t.Fatalf("v=%d: %d short blocks, want at most 1", v, short)
		}
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
	lo, hi := g.ownedRange(63)
	if hi != 1<<20 || hi-lo <= 0 {
		t.Fatalf("last block [%d,%d)", lo, hi)
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
