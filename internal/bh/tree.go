// Package bh implements the Barnes-Hut hierarchical N-body method — the
// first of the paper's two applications — as a pointer-based octree with a
// sequential reference implementation and a distributed force-computation
// phase that runs under any of the runtimes (DPA, caching, blocking).
package bh

import (
	"math"

	"dpa/internal/nbody"
	"dpa/internal/sim"
)

// maxDepth caps octree subdivision to guard against coincident bodies.
const maxDepth = 30

// Tree is the host-side octree over a set of bodies.
type Tree struct {
	Bodies  []nbody.Body
	Cells   []Cell
	Root    int32
	Min     [3]float64
	Size    float64
	LeafCap int

	// carve is the unused tail of the chunk a new leaf's Body is cut from
	// during Build, LeafCap+1 entries at a time.
	carve []int32
}

// Cell is one octree node. Leaves carry their body indices; internal cells
// carry children. Mass and COM summarize the whole subtree.
type Cell struct {
	Center    [3]float64
	Half      float64
	Mass      float64
	COM       [3]float64
	Quad      [6]float64 // traceless quadrupole: xx, xy, xz, yy, yz, zz
	Child     [8]int32   // -1 = absent
	Body      []int32    // leaf only
	Leaf      bool
	Depth     int32
	NBelow    int32
	FirstBody int32 // a representative body beneath, for ownership
}

// Build constructs the octree by insertion, splitting leaves that exceed
// leafCap, then summarizes mass and centers of mass bottom-up.
func Build(bodies []nbody.Body, leafCap int) *Tree {
	if leafCap < 1 {
		leafCap = 1
	}
	min, size := nbody.Bounds(bodies)
	cells := cellsFor(len(bodies), leafCap)
	t := &Tree{Bodies: bodies, Cells: make([]Cell, 0, cells), Min: min, Size: size, LeafCap: leafCap}
	t.carve = make([]int32, cells*(leafCap+1))
	var center [3]float64
	for d := 0; d < 3; d++ {
		center[d] = min[d] + size/2
	}
	t.Root = t.newCell(center, size/2, 0)
	for i := range bodies {
		t.insert(t.Root, int32(i))
	}
	t.carve = nil
	t.summarize(t.Root)
	t.quadrupoles(t.Root)
	return t
}

// cellsFor is the cell count Build sizes Tree.Cells for: n bodies in leaves
// of at most leafCap make about n·(3 + 1.5·log2 leafCap)/(2·leafCap) cells.
// Measured cells·leafCap/n on Plummer spheres of 256 to 16,384 bodies reads
// 1.48–1.50, 2.05–2.12, 2.75–2.81, 3.32–3.84 and 3.93–4.33 at leafCap 1, 2,
// 4, 8 and 16, against the formula's 1.5, 2.25, 3, 3.75 and 4.5; uniform
// cubes swing wider (2.45–3.05 at leafCap 4) as the leaves fill whole
// levels. A tree that outgrows the estimate grows Cells by append.
func cellsFor(n, leafCap int) int {
	return int(float64(n)*(3+1.5*math.Log2(float64(leafCap)))/float64(2*leafCap)) + 8
}

// quadrupoles computes traceless quadrupole moments bottom-up: leaves from
// their bodies, internal cells from children via the parallel-axis shift
// Q += Q_child + m_child·(3·d⊗d − d²·I) with d = COM_child − COM_cell.
func (t *Tree) quadrupoles(ci int32) {
	c := &t.Cells[ci]
	addPoint := func(m float64, d [3]float64) {
		d2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		c.Quad[0] += m * (3*d[0]*d[0] - d2)
		c.Quad[1] += m * 3 * d[0] * d[1]
		c.Quad[2] += m * 3 * d[0] * d[2]
		c.Quad[3] += m * (3*d[1]*d[1] - d2)
		c.Quad[4] += m * 3 * d[1] * d[2]
		c.Quad[5] += m * (3*d[2]*d[2] - d2)
	}
	if c.Leaf {
		for _, bi := range c.Body {
			b := &t.Bodies[bi]
			var d [3]float64
			for k := 0; k < 3; k++ {
				d[k] = b.Pos[k] - c.COM[k]
			}
			addPoint(b.Mass, d)
		}
		return
	}
	for _, ch := range c.Child {
		if ch == -1 {
			continue
		}
		t.quadrupoles(ch)
		cc := &t.Cells[ch]
		for q := 0; q < 6; q++ {
			c.Quad[q] += cc.Quad[q]
		}
		var d [3]float64
		for k := 0; k < 3; k++ {
			d[k] = cc.COM[k] - c.COM[k]
		}
		addPoint(cc.Mass, d)
	}
}

// AccelQuad returns the quadrupole correction to the acceleration at pos
// due to a cell with COM com and traceless quadrupole quad:
// a += −(Q·dr)/r⁵ + (5/2)·(dr·Q·dr)·dr/r⁷, with dr = com − pos.
func AccelQuad(pos, com [3]float64, quad [6]float64, eps float64) [3]float64 {
	var dr [3]float64
	var r2 float64
	for k := 0; k < 3; k++ {
		dr[k] = com[k] - pos[k]
		r2 += dr[k] * dr[k]
	}
	r2 += eps * eps
	qd := [3]float64{
		quad[0]*dr[0] + quad[1]*dr[1] + quad[2]*dr[2],
		quad[1]*dr[0] + quad[3]*dr[1] + quad[4]*dr[2],
		quad[2]*dr[0] + quad[4]*dr[1] + quad[5]*dr[2],
	}
	drqdr := dr[0]*qd[0] + dr[1]*qd[1] + dr[2]*qd[2]
	r := math.Sqrt(r2)
	inv5 := 1 / (r2 * r2 * r)
	inv7 := inv5 / r2
	var a [3]float64
	for k := 0; k < 3; k++ {
		a[k] = -qd[k]*inv5 + 2.5*drqdr*dr[k]*inv7
	}
	return a
}

// newCell appends an empty leaf and cuts the first LeafCap+1 entries of its
// Body from the carve chunk: every cell is made for a body and holds one at
// once, and a leaf splits as soon as it holds LeafCap+1, so only a leaf at
// maxDepth outgrows the carve, by append. A split cell's carve is not reused.
func (t *Tree) newCell(center [3]float64, half float64, depth int32) int32 {
	k := t.LeafCap + 1
	if len(t.carve) < k {
		t.carve = make([]int32, (len(t.Cells)/4+8)*k)
	}
	c := Cell{Center: center, Half: half, Leaf: true, Depth: depth, FirstBody: -1, Body: t.carve[:0:k]}
	t.carve = t.carve[k:]
	for i := range c.Child {
		c.Child[i] = -1
	}
	t.Cells = append(t.Cells, c)
	return int32(len(t.Cells) - 1)
}

// octant returns which child octant of cell c position p falls into.
func octant(center [3]float64, p [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if p[d] >= center[d] {
			o |= 1 << d
		}
	}
	return o
}

func childCenter(center [3]float64, half float64, o int) [3]float64 {
	q := half / 2
	var c [3]float64
	for d := 0; d < 3; d++ {
		if o&(1<<d) != 0 {
			c[d] = center[d] + q
		} else {
			c[d] = center[d] - q
		}
	}
	return c
}

func (t *Tree) insert(ci, bi int32) {
	for {
		c := &t.Cells[ci]
		if c.Leaf {
			c.Body = append(c.Body, bi)
			if len(c.Body) <= t.LeafCap || c.Depth >= maxDepth {
				return
			}
			// Split: push bodies down into new children.
			bodies := c.Body
			c.Body = nil
			c.Leaf = false
			for _, b := range bodies {
				t.pushDown(ci, b)
			}
			return
		}
		o := octant(c.Center, t.Bodies[bi].Pos)
		if c.Child[o] == -1 {
			cc := childCenter(c.Center, c.Half, o)
			child := t.newCell(cc, c.Half/2, c.Depth+1)
			// newCell may have grown t.Cells; re-take the pointer.
			t.Cells[ci].Child[o] = child
			ci = child
			continue
		}
		ci = c.Child[o]
	}
}

// pushDown inserts bi into the proper child of the (just split) cell ci.
func (t *Tree) pushDown(ci, bi int32) {
	c := &t.Cells[ci]
	o := octant(c.Center, t.Bodies[bi].Pos)
	if c.Child[o] == -1 {
		cc := childCenter(c.Center, c.Half, o)
		child := t.newCell(cc, c.Half/2, c.Depth+1)
		t.Cells[ci].Child[o] = child
	}
	t.insert(t.Cells[ci].Child[o], bi)
}

// summarize computes Mass, COM, NBelow and FirstBody bottom-up.
func (t *Tree) summarize(ci int32) {
	c := &t.Cells[ci]
	if c.Leaf {
		for _, bi := range c.Body {
			b := &t.Bodies[bi]
			c.Mass += b.Mass
			for d := 0; d < 3; d++ {
				c.COM[d] += b.Mass * b.Pos[d]
			}
		}
		c.NBelow = int32(len(c.Body))
		if len(c.Body) > 0 {
			c.FirstBody = c.Body[0]
		}
	} else {
		for _, ch := range c.Child {
			if ch == -1 {
				continue
			}
			t.summarize(ch)
			cc := &t.Cells[ch]
			c = &t.Cells[ci] // summarize may not grow cells, but stay safe
			c.Mass += cc.Mass
			for d := 0; d < 3; d++ {
				c.COM[d] += cc.COM[d] * cc.Mass // cc.COM already normalized
			}
			c.NBelow += cc.NBelow
			if c.FirstBody == -1 {
				c.FirstBody = cc.FirstBody
			}
		}
	}
	if c.Mass > 0 {
		for d := 0; d < 3; d++ {
			c.COM[d] /= c.Mass
		}
	}
}

// CostModel gives the cycle costs of the force computation's unit
// operations, calibrated so that the sequential 16,384-body, 4-step run
// lands near the paper's 97.84 s at 150 MHz.
type CostModel struct {
	// OpenTest is one multipole-acceptance (opening) test.
	OpenTest sim.Time
	// BodyBody is one direct pairwise interaction.
	BodyBody sim.Time
	// BodyCell is one body-cell (approximated) interaction.
	BodyCell sim.Time
	// QuadExtra is the additional cost of a quadrupole correction.
	QuadExtra sim.Time
}

// DefaultCosts returns the calibrated cost model. An interaction is ~60
// flops, but on an Alpha 21064-class node (non-pipelined divide, software
// sqrt, 8 KB L1) it costs several hundred cycles; the values below are
// calibrated so the sequential 16,384-body 4-step run lands at the paper's
// 97.84 s at 150 MHz (see EXPERIMENTS.md).
func DefaultCosts() CostModel {
	return CostModel{OpenTest: 60, BodyBody: 800, BodyCell: 850, QuadExtra: 420}
}

// open reports whether the multipole acceptance criterion requires opening
// the cell for a body at pos: cellsize/distance >= theta.
func open(size float64, com [3]float64, pos [3]float64, theta float64) bool {
	var d2 float64
	for d := 0; d < 3; d++ {
		dd := com[d] - pos[d]
		d2 += dd * dd
	}
	return size*size >= theta*theta*d2
}

// Accel returns the gravitational acceleration at pos due to mass m at src,
// with Plummer softening eps (G = 1).
func Accel(pos, src [3]float64, m, eps float64) [3]float64 {
	var dr [3]float64
	var d2 float64
	for d := 0; d < 3; d++ {
		dr[d] = src[d] - pos[d]
		d2 += dr[d] * dr[d]
	}
	d2 += eps * eps
	inv := 1.0 / (d2 * math.Sqrt(d2))
	var a [3]float64
	for d := 0; d < 3; d++ {
		a[d] = m * dr[d] * inv
	}
	return a
}

// Counters tallies traversal operations, for calibration and tests.
type Counters struct {
	Opens     int64
	BodyBody  int64
	BodyCell  int64
	CellVisit int64
}

// ForceOn computes the acceleration on body bi by recursive traversal,
// applying quadrupole corrections to body-cell interactions when quad is
// set. If charge is non-nil, each unit operation is charged through it
// (used to run the same computation inside the simulator); ctr may be nil.
func (t *Tree) ForceOn(bi int32, theta, eps float64, quad bool, cm CostModel,
	charge func(sim.Category, sim.Time), ctr *Counters) [3]float64 {

	pos := t.Bodies[bi].Pos
	var acc [3]float64
	var rec func(ci int32)
	rec = func(ci int32) {
		c := &t.Cells[ci]
		if charge != nil {
			charge(sim.Compute, cm.OpenTest)
		}
		if ctr != nil {
			ctr.CellVisit++
			ctr.Opens++
		}
		if open(2*c.Half, c.COM, pos, theta) {
			if c.Leaf {
				for _, bj := range c.Body {
					if bj == bi {
						continue
					}
					if charge != nil {
						charge(sim.Compute, cm.BodyBody)
					}
					if ctr != nil {
						ctr.BodyBody++
					}
					a := Accel(pos, t.Bodies[bj].Pos, t.Bodies[bj].Mass, eps)
					for d := 0; d < 3; d++ {
						acc[d] += a[d]
					}
				}
				return
			}
			for _, ch := range c.Child {
				if ch != -1 {
					rec(ch)
				}
			}
			return
		}
		if charge != nil {
			charge(sim.Compute, cm.BodyCell)
		}
		if ctr != nil {
			ctr.BodyCell++
		}
		a := Accel(pos, c.COM, c.Mass, eps)
		for d := 0; d < 3; d++ {
			acc[d] += a[d]
		}
		if quad {
			if charge != nil {
				charge(sim.Compute, cm.QuadExtra)
			}
			aq := AccelQuad(pos, c.COM, c.Quad, eps)
			for d := 0; d < 3; d++ {
				acc[d] += aq[d]
			}
		}
	}
	rec(t.Root)
	return acc
}

// SeqForces computes all accelerations on the host (no simulation), the
// reference for correctness tests (monopole approximation).
func (t *Tree) SeqForces(theta, eps float64) [][3]float64 {
	return t.SeqForcesQ(theta, eps, false)
}

// SeqForcesQ is SeqForces with selectable quadrupole corrections.
func (t *Tree) SeqForcesQ(theta, eps float64, quad bool) [][3]float64 {
	acc := make([][3]float64, len(t.Bodies))
	for i := range t.Bodies {
		acc[i] = t.ForceOn(int32(i), theta, eps, quad, CostModel{}, nil, nil)
	}
	return acc
}

// DirectForces computes all accelerations by the O(n^2) direct method, the
// accuracy reference.
func DirectForces(bodies []nbody.Body, eps float64) [][3]float64 {
	acc := make([][3]float64, len(bodies))
	for i := range bodies {
		for j := range bodies {
			if i == j {
				continue
			}
			a := Accel(bodies[i].Pos, bodies[j].Pos, bodies[j].Mass, eps)
			for d := 0; d < 3; d++ {
				acc[i][d] += a[d]
			}
		}
	}
	return acc
}
