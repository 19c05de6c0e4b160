// Package nbody provides the shared substrate for the two hierarchical
// N-body applications: body types, deterministic workload generators
// (the Plummer model used by SPLASH-2 Barnes-Hut and uniform/clustered 2D
// distributions for FMM), Morton ordering, and the costzone-style body
// partitioner used to distribute bodies across nodes.
package nbody

import (
	"math"
	"math/rand"
	"sort"
)

// Body is a point mass in up to three dimensions (FMM uses x, y only).
type Body struct {
	Pos  [3]float64
	Vel  [3]float64
	Mass float64
}

// Plummer generates n bodies from the Plummer model, the distribution the
// SPLASH-2 Barnes-Hut benchmark uses. The generator is deterministic for a
// given seed.
func Plummer(n int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]Body, n)
	const rsc = 3.0 * math.Pi / 16.0
	vsc := math.Sqrt(1.0 / rsc)
	for i := range bodies {
		b := &bodies[i]
		b.Mass = 1.0 / float64(n)
		// Radius from the cumulative mass profile; clamp the tail.
		var r float64
		for {
			m := rng.Float64()*0.999 + 1e-6
			r = 1.0 / math.Sqrt(math.Pow(m, -2.0/3.0)-1.0)
			if r < 9.0 {
				break
			}
		}
		dir := randDir(rng)
		for d := 0; d < 3; d++ {
			b.Pos[d] = rsc * r * dir[d]
		}
		// Velocity by von Neumann rejection (Aarseth).
		var x, y float64
		for {
			x = rng.Float64()
			y = rng.Float64() * 0.1
			if y <= x*x*math.Pow(1.0-x*x, 3.5) {
				break
			}
		}
		v := x * math.Sqrt2 * math.Pow(1.0+r*r, -0.25)
		dir = randDir(rng)
		for d := 0; d < 3; d++ {
			b.Vel[d] = vsc * v * dir[d]
		}
	}
	centerBodies(bodies)
	return bodies
}

// randDir returns a uniformly random unit vector.
func randDir(rng *rand.Rand) [3]float64 {
	for {
		var v [3]float64
		var s float64
		for d := 0; d < 3; d++ {
			v[d] = 2.0*rng.Float64() - 1.0
			s += v[d] * v[d]
		}
		if s > 1e-12 && s <= 1.0 {
			inv := 1.0 / math.Sqrt(s)
			for d := 0; d < 3; d++ {
				v[d] *= inv
			}
			return v
		}
	}
}

// centerBodies shifts positions and velocities to the center-of-mass frame.
func centerBodies(bodies []Body) {
	var cmPos, cmVel [3]float64
	var mass float64
	for i := range bodies {
		mass += bodies[i].Mass
		for d := 0; d < 3; d++ {
			cmPos[d] += bodies[i].Mass * bodies[i].Pos[d]
			cmVel[d] += bodies[i].Mass * bodies[i].Vel[d]
		}
	}
	for d := 0; d < 3; d++ {
		cmPos[d] /= mass
		cmVel[d] /= mass
	}
	for i := range bodies {
		for d := 0; d < 3; d++ {
			bodies[i].Pos[d] -= cmPos[d]
			bodies[i].Vel[d] -= cmVel[d]
		}
	}
}

// Uniform2D generates n bodies uniformly in the unit square (z = 0), the
// FMM workload. Masses ("charges") are uniform in (0, 1].
func Uniform2D(n int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i].Pos[0] = rng.Float64()
		bodies[i].Pos[1] = rng.Float64()
		bodies[i].Mass = rng.Float64()*0.999 + 0.001
	}
	return bodies
}

// Clustered2D generates n bodies in k Gaussian clusters in the unit square,
// a skewed FMM workload for load-imbalance experiments.
func Clustered2D(n, k int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][2]float64, k)
	for i := range centers {
		centers[i] = [2]float64{0.15 + 0.7*rng.Float64(), 0.15 + 0.7*rng.Float64()}
	}
	bodies := make([]Body, n)
	for i := range bodies {
		c := centers[rng.Intn(k)]
		for {
			x := c[0] + rng.NormFloat64()*0.03
			y := c[1] + rng.NormFloat64()*0.03
			if x > 0 && x < 1 && y > 0 && y < 1 {
				bodies[i].Pos[0], bodies[i].Pos[1] = x, y
				break
			}
		}
		bodies[i].Mass = rng.Float64()*0.999 + 0.001
	}
	return bodies
}

// Bounds returns the min corner and the maximum extent of the bodies,
// expanded slightly so that all bodies are strictly inside.
func Bounds(bodies []Body) (min [3]float64, size float64) {
	var max [3]float64
	for d := 0; d < 3; d++ {
		min[d] = math.Inf(1)
		max[d] = math.Inf(-1)
	}
	for i := range bodies {
		for d := 0; d < 3; d++ {
			if bodies[i].Pos[d] < min[d] {
				min[d] = bodies[i].Pos[d]
			}
			if bodies[i].Pos[d] > max[d] {
				max[d] = bodies[i].Pos[d]
			}
		}
	}
	for d := 0; d < 3; d++ {
		if size < max[d]-min[d] {
			size = max[d] - min[d]
		}
	}
	size *= 1.0001
	if size == 0 {
		size = 1
	}
	return min, size
}

// Morton3D returns the 3D Morton (Z-order) key of a position within the
// cube (min, size), using 10 bits per dimension.
func Morton3D(pos, min [3]float64, size float64) uint64 {
	var key uint64
	for d := 0; d < 3; d++ {
		x := (pos[d] - min[d]) / size
		if x < 0 {
			x = 0
		}
		if x >= 1 {
			x = math.Nextafter(1, 0)
		}
		key |= spread3(uint32(x*1024)) << uint(d)
	}
	return key
}

// Morton2D returns the 2D Morton key using 16 bits per dimension.
func Morton2D(pos [3]float64, min [3]float64, size float64) uint64 {
	var key uint64
	for d := 0; d < 2; d++ {
		x := (pos[d] - min[d]) / size
		if x < 0 {
			x = 0
		}
		if x >= 1 {
			x = math.Nextafter(1, 0)
		}
		key |= spread2(uint32(x*65536)) << uint(d)
	}
	return key
}

// spread3 inserts two zero bits between each of the low 10 bits.
func spread3(x uint32) uint64 {
	v := uint64(x) & 0x3ff
	v = (v | v<<16) & 0x30000ff
	v = (v | v<<8) & 0x300f00f
	v = (v | v<<4) & 0x30c30c3
	v = (v | v<<2) & 0x9249249
	return v
}

// spread2 inserts one zero bit between each of the low 16 bits.
func spread2(x uint32) uint64 {
	v := uint64(x) & 0xffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// Partition assigns bodies to nodes by cutting the Morton-sorted order into
// weighted contiguous zones ("costzones"): body i has weight cost[i]
// (nil means unit cost) and each node receives a contiguous zone of
// approximately total/nodes weight. It returns the per-body owner. Spatial
// contiguity of zones is what gives the force phase its locality.
func Partition(bodies []Body, cost []float64, nodes int, key func(Body) uint64) []int32 {
	n := len(bodies)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	keys := make([]uint64, n)
	for i := range bodies {
		keys[i] = key(bodies[i])
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return CostZones(idx, cost, nodes)
}

// CostZones cuts items, visited in order, into nodes contiguous zones of
// about total/nodes weight each and returns every item's zone, indexed like
// weight: item i weighs weight[i] (nil weighs each of the len(order) items
// 1), and items absent from order are left in zone 0. The total is summed in
// index order. A zone closes before the item that would carry the running
// weight past its share, except the last, which takes every remaining item,
// so each zone's load is below total/nodes plus the heaviest item.
func CostZones(order []int, weight []float64, nodes int) []int32 {
	w := func(i int) float64 {
		if weight == nil {
			return 1
		}
		return weight[i]
	}
	n := len(weight)
	if weight == nil {
		n = len(order)
	}
	var total float64
	for i := 0; i < n; i++ {
		total += w(i)
	}
	zone := make([]int32, n)
	perNode := total / float64(nodes)
	acc, node := 0.0, 0
	for _, i := range order {
		wi := w(i)
		if acc+wi > perNode*float64(node+1) && node < nodes-1 {
			node++
		}
		zone[i] = int32(node)
		acc += wi
	}
	return zone
}

// Leapfrog advances bodies one step of size dt given per-body accelerations.
func Leapfrog(bodies []Body, acc [][3]float64, dt float64) {
	for i := range bodies {
		for d := 0; d < 3; d++ {
			bodies[i].Vel[d] += acc[i][d] * dt
			bodies[i].Pos[d] += bodies[i].Vel[d] * dt
		}
	}
}
