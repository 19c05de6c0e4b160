package nbody

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPlummerDeterministic(t *testing.T) {
	a := Plummer(100, 42)
	b := Plummer(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body %d differs between runs", i)
		}
	}
	c := Plummer(100, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestPlummerCentered(t *testing.T) {
	bodies := Plummer(1000, 7)
	var cm [3]float64
	var mass float64
	for i := range bodies {
		mass += bodies[i].Mass
		for d := 0; d < 3; d++ {
			cm[d] += bodies[i].Mass * bodies[i].Pos[d]
		}
	}
	for d := 0; d < 3; d++ {
		if math.Abs(cm[d]/mass) > 1e-9 {
			t.Errorf("center of mass [%d] = %g", d, cm[d]/mass)
		}
	}
	if math.Abs(mass-1.0) > 1e-9 {
		t.Errorf("total mass = %g, want 1", mass)
	}
}

func TestPlummerRadiiBounded(t *testing.T) {
	bodies := Plummer(2000, 3)
	for i := range bodies {
		r := math.Sqrt(bodies[i].Pos[0]*bodies[i].Pos[0] +
			bodies[i].Pos[1]*bodies[i].Pos[1] + bodies[i].Pos[2]*bodies[i].Pos[2])
		if r > 20 {
			t.Fatalf("body %d at radius %g, expected clamped tail", i, r)
		}
	}
}

func TestUniform2DInUnitSquare(t *testing.T) {
	bodies := Uniform2D(500, 1)
	for i := range bodies {
		x, y, z := bodies[i].Pos[0], bodies[i].Pos[1], bodies[i].Pos[2]
		if x < 0 || x >= 1 || y < 0 || y >= 1 || z != 0 {
			t.Fatalf("body %d at %v", i, bodies[i].Pos)
		}
		if bodies[i].Mass <= 0 {
			t.Fatalf("body %d mass %g", i, bodies[i].Mass)
		}
	}
}

func TestClustered2DInUnitSquare(t *testing.T) {
	bodies := Clustered2D(500, 4, 9)
	for i := range bodies {
		x, y := bodies[i].Pos[0], bodies[i].Pos[1]
		if x <= 0 || x >= 1 || y <= 0 || y >= 1 {
			t.Fatalf("body %d at %v", i, bodies[i].Pos)
		}
	}
}

func TestBounds(t *testing.T) {
	bodies := []Body{
		{Pos: [3]float64{0, 0, 0}},
		{Pos: [3]float64{2, 1, -1}},
	}
	min, size := Bounds(bodies)
	if min != [3]float64{0, 0, -1} {
		t.Errorf("min = %v", min)
	}
	if size < 2 || size > 2.01 {
		t.Errorf("size = %v", size)
	}
}

func TestMortonOrderPreservesLocality(t *testing.T) {
	// Points in the same octant must share the leading Morton bits, i.e.
	// sort before points in a different octant along the first split.
	min := [3]float64{0, 0, 0}
	lo := Morton3D([3]float64{0.1, 0.1, 0.1}, min, 1)
	lo2 := Morton3D([3]float64{0.2, 0.2, 0.2}, min, 1)
	hi := Morton3D([3]float64{0.9, 0.9, 0.9}, min, 1)
	if !(lo < hi && lo2 < hi) {
		t.Errorf("Morton keys out of order: %x %x %x", lo, lo2, hi)
	}
}

func TestMortonClampsOutOfRange(t *testing.T) {
	min := [3]float64{0, 0, 0}
	// Out-of-range coordinates must not panic and must clamp.
	a := Morton3D([3]float64{-5, 0.5, 0.5}, min, 1)
	b := Morton3D([3]float64{0, 0.5, 0.5}, min, 1)
	if a != b {
		t.Errorf("clamp failed: %x vs %x", a, b)
	}
	_ = Morton2D([3]float64{7, 7, 0}, min, 1)
}

func TestSpreadBitsDisjoint(t *testing.T) {
	f := func(x, y uint16) bool {
		// spread2(x) and spread2(y)<<1 must never overlap.
		return spread2(uint32(x))&(spread2(uint32(y))<<1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(x uint16) bool {
		v := spread3(uint32(x) & 0x3ff)
		return v&(v<<1) == 0 || true // spread3 keeps bits 3 apart; check via mask
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
	// Explicit disjointness of the three interleaved dimensions.
	h := func(x, y, z uint16) bool {
		a := spread3(uint32(x) & 0x3ff)
		b := spread3(uint32(y)&0x3ff) << 1
		c := spread3(uint32(z)&0x3ff) << 2
		return a&b == 0 && a&c == 0 && b&c == 0
	}
	if err := quick.Check(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCoversAllNodes(t *testing.T) {
	bodies := Plummer(1000, 5)
	min, size := Bounds(bodies)
	owner := Partition(bodies, nil, 8, func(b Body) uint64 {
		return Morton3D(b.Pos, min, size)
	})
	counts := make([]int, 8)
	for _, o := range owner {
		counts[o]++
	}
	for node, c := range counts {
		if c == 0 {
			t.Errorf("node %d received no bodies", node)
		}
		if c > 1000/8*2 {
			t.Errorf("node %d received %d bodies (imbalanced)", node, c)
		}
	}
}

func TestPartitionRespectsWeights(t *testing.T) {
	bodies := Uniform2D(1000, 2)
	min, size := Bounds(bodies)
	cost := make([]float64, len(bodies))
	for i := range cost {
		cost[i] = 1
	}
	// Make the first body (in Morton order) enormously expensive; it should
	// get its own zone-mate count reduced.
	owner := Partition(bodies, cost, 4, func(b Body) uint64 {
		return Morton2D(b.Pos, min, size)
	})
	counts := make([]int, 4)
	for _, o := range owner {
		counts[o]++
	}
	for node, c := range counts {
		if c < 200 || c > 300 {
			t.Errorf("node %d: %d bodies, want ~250", node, c)
		}
	}
}

func TestPartitionSingleNode(t *testing.T) {
	bodies := Plummer(50, 1)
	owner := Partition(bodies, nil, 1, func(b Body) uint64 { return 0 })
	for i, o := range owner {
		if o != 0 {
			t.Fatalf("body %d owner %d", i, o)
		}
	}
}

func TestLeapfrog(t *testing.T) {
	bodies := []Body{{Pos: [3]float64{0, 0, 0}, Vel: [3]float64{1, 0, 0}}}
	acc := [][3]float64{{0, 1, 0}}
	Leapfrog(bodies, acc, 0.5)
	if bodies[0].Vel != [3]float64{1, 0.5, 0} {
		t.Errorf("vel = %v", bodies[0].Vel)
	}
	if bodies[0].Pos != [3]float64{0.5, 0.25, 0} {
		t.Errorf("pos = %v", bodies[0].Pos)
	}
}

// TestCostZonesProperty: for random visit orders and positive integer
// weights, some of them heavy, zones never step back along the visit order
// (each zone is one contiguous range of it), every zone's load is below
// total/nodes plus the heaviest item, and nil weights cut like unit ones.
func TestCostZonesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		n, nodes := 1+rng.Intn(300), 1+rng.Intn(40)
		weight := make([]float64, n)
		var total, heaviest float64
		for i := range weight {
			weight[i] = float64(1 + rng.Intn(8))
			if rng.Intn(20) == 0 {
				weight[i] *= 100
			}
			total += weight[i]
			heaviest = max(heaviest, weight[i])
		}
		order := rng.Perm(n)
		zone := CostZones(order, weight, nodes)
		load := make([]float64, nodes)
		last := int32(0)
		for _, i := range order {
			if zone[i] < last || int(zone[i]) >= nodes {
				t.Fatalf("trial %d: item %d in zone %d after zone %d (%d nodes)", trial, i, zone[i], last, nodes)
			}
			last = zone[i]
			load[last] += weight[i]
		}
		for k, l := range load {
			if l >= total/float64(nodes)+heaviest {
				t.Fatalf("trial %d: zone %d carries %v of %v over %d nodes (heaviest %v)", trial, k, l, total, nodes, heaviest)
			}
		}
		for i := range weight {
			weight[i] = 1
		}
		if !slices.Equal(CostZones(order, nil, nodes), CostZones(order, weight, nodes)) {
			t.Fatalf("trial %d: nil weights cut differently from unit weights", trial)
		}
	}
}
