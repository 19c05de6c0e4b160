package fmm

import (
	"math"
	"math/cmplx"

	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// CostModel gives the cycle costs of FMM unit operations, calibrated so the
// sequential 32,768-body, 29-term step lands near the paper's 14.46 s at
// 150 MHz.
type CostModel struct {
	// P2MTerm is per body per term when forming leaf multipoles.
	P2MTerm sim.Time
	// TransTerm is per (l,k) term pair in a translation (M2M, M2L, L2L);
	// each translation costs TransTerm·p².
	TransTerm sim.Time
	// L2PTerm is per body per term when evaluating local expansions.
	L2PTerm sim.Time
	// P2PPair is one direct pairwise interaction.
	P2PPair sim.Time
}

// DefaultCosts returns the cost model calibrated so the sequential
// 32,768-body, 29-term step lands at the paper's 14.46 s at 150 MHz
// (see EXPERIMENTS.md).
func DefaultCosts() CostModel {
	return CostModel{P2MTerm: 13, TransTerm: 14, L2PTerm: 16, P2PPair: 145}
}

// Params configures an FMM computation.
type Params struct {
	// Terms is the expansion order p (the paper uses 29).
	Terms int
	// Levels is the leaf level of the uniform quadtree.
	Levels int
	// Costs is the cycle cost model.
	Costs CostModel
}

// DefaultParams picks the expansion order used by the paper and a leaf
// level giving roughly 8 bodies per leaf for n bodies.
func DefaultParams(n int) Params {
	levels := 2
	for (1<<(2*levels))*8 < n {
		levels++
	}
	return Params{Terms: 29, Levels: levels, Costs: DefaultCosts()}
}

// Result holds per-body outputs: the complex field φ'(z_i) and the real
// potential, both excluding self-interaction.
type Result struct {
	Field []complex128
	Pot   []float64
}

// Z returns body i's position as a complex number.
func Z(b *nbody.Body) complex128 { return complex(b.Pos[0], b.Pos[1]) }

// Solve runs the full sequential FMM on the host. If charge is non-nil,
// every unit operation is charged through it (used to run the reference
// inside the simulator). This is the correctness and cost baseline for the
// distributed phases.
func Solve(bodies []nbody.Body, prm Params, charge func(sim.Category, sim.Time)) *Result {
	g := Grid{L: prm.Levels}
	p := prm.Terms
	cm := prm.Costs
	ch := func(d sim.Time) {
		if charge != nil {
			charge(sim.Compute, d)
		}
	}
	pSq := sim.Time(p) * sim.Time(p)

	// Bucket bodies into leaves.
	leafBody := make([][]int32, g.CellsAt(g.L))
	for i := range bodies {
		c := g.LeafOf(bodies[i].Pos[0], bodies[i].Pos[1])
		leafBody[c] = append(leafBody[c], int32(i))
	}
	below := countBelow(g, leafBody)

	// Multipoles, leaf level up (P2M then M2M).
	mp := make([][]*Multipole, g.L+1)
	for l := 2; l <= g.L; l++ {
		mp[l] = make([]*Multipole, g.CellsAt(l))
		for c := range mp[l] {
			mp[l][c] = NewMultipole(g.Center(l, c), p)
		}
	}
	for c, bs := range leafBody {
		for _, bi := range bs {
			mp[g.L][c].AddSource(Z(&bodies[bi]), bodies[bi].Mass)
			ch(cm.P2MTerm * sim.Time(p))
		}
	}
	for l := g.L - 1; l >= 2; l-- {
		for c := range mp[l] {
			for k := 0; k < 4; k++ {
				child := ChildBase(c) + k
				if below[l+1][child] == 0 {
					continue
				}
				mp[l][c].Shift(mp[l+1][child])
				ch(cm.TransTerm * pSq)
			}
		}
	}

	// Local expansions: M2L at each level, then L2L downward.
	loc := make([][]*Local, g.L+1)
	for l := 2; l <= g.L; l++ {
		loc[l] = make([]*Local, g.CellsAt(l))
		for c := range loc[l] {
			loc[l][c] = NewLocal(g.Center(l, c), p)
		}
	}
	var ibuf []int
	for l := 2; l <= g.L; l++ {
		for c := range loc[l] {
			if below[l][c] == 0 {
				continue
			}
			ibuf = g.InteractionList(l, c, ibuf[:0])
			for _, q := range ibuf {
				if below[l][q] == 0 {
					continue
				}
				loc[l][c].AddMultipole(mp[l][q])
				ch(cm.TransTerm * pSq)
			}
		}
	}
	for l := 3; l <= g.L; l++ {
		for c := range loc[l] {
			if below[l][c] == 0 {
				continue
			}
			loc[l][c].ShiftFrom(loc[l-1][Parent(c)])
			ch(cm.TransTerm * pSq)
		}
	}

	// Evaluation: L2P plus near-field P2P.
	res := &Result{
		Field: make([]complex128, len(bodies)),
		Pot:   make([]float64, len(bodies)),
	}
	var nbuf []int
	for c, bs := range leafBody {
		if len(bs) == 0 {
			continue
		}
		for _, bi := range bs {
			z := Z(&bodies[bi])
			res.Field[bi] += loc[g.L][c].EvalDeriv(z)
			res.Pot[bi] += real(loc[g.L][c].Eval(z))
			ch(cm.L2PTerm * sim.Time(p))
		}
		nbuf = g.Neighbors(g.L, c, nbuf[:0])
		nbuf = append(nbuf, c)
		for _, q := range nbuf {
			for _, bi := range bs {
				z := Z(&bodies[bi])
				for _, bj := range leafBody[q] {
					if bj == bi {
						continue
					}
					zj := Z(&bodies[bj])
					res.Field[bi] += complex(bodies[bj].Mass, 0) / (z - zj)
					res.Pot[bi] += bodies[bj].Mass * math.Log(cmplx.Abs(z-zj))
					ch(cm.P2PPair)
				}
			}
		}
	}
	return res
}

// countBelow computes per-cell body counts for all levels.
func countBelow(g Grid, leafBody [][]int32) [][]int32 {
	below := make([][]int32, g.L+1)
	below[g.L] = make([]int32, g.CellsAt(g.L))
	for c, bs := range leafBody {
		below[g.L][c] = int32(len(bs))
	}
	for l := g.L - 1; l >= 0; l-- {
		below[l] = make([]int32, g.CellsAt(l))
		for c := range below[l] {
			for k := 0; k < 4; k++ {
				below[l][c] += below[l+1][ChildBase(c)+k]
			}
		}
	}
	return below
}

// DirectSolve computes fields and potentials by the O(n²) direct method,
// the accuracy reference.
func DirectSolve(bodies []nbody.Body) *Result {
	res := &Result{
		Field: make([]complex128, len(bodies)),
		Pot:   make([]float64, len(bodies)),
	}
	for i := range bodies {
		zi := Z(&bodies[i])
		for j := range bodies {
			if i == j {
				continue
			}
			zj := Z(&bodies[j])
			res.Field[i] += complex(bodies[j].Mass, 0) / (zi - zj)
			res.Pot[i] += bodies[j].Mass * math.Log(cmplx.Abs(zi-zj))
		}
	}
	return res
}

// SeqStep runs the sequential FMM inside a one-node simulated machine and
// returns its run statistics (the paper's 14.46 s configuration) along with
// the result.
func SeqStep(bodies []nbody.Body, prm Params) (stats.Run, *Result) {
	m := machine.New(machine.DefaultT3D(1))
	defer m.Close()
	var res *Result
	makespan, err := m.Run(func(nd *machine.Node) {
		res = Solve(bodies, prm, nd.Charge)
	})
	if err != nil {
		panic(err) // single-node baseline cannot legitimately deadlock
	}
	return stats.Collect(m, makespan), res
}
