package main

import (
	"fmt"
	"math"

	"dpa"
	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fm"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/stats"
)

// sizes fixes how much every workload and probe does. full is the benchmark;
// tiny is the smoke test's, small enough for a few seconds in total.
type sizes struct {
	smallNodes, largeNodes int
	bodies                 int // Barnes-Hut bodies
	vertices, prIters      int // PageRank graph and iterations
	emNodes, emIters       int // EM3D nodes per kind and iterations
	setupRounds, minPairs  int // set-ups per run; least timed (sequential, parallel) pairs
	layerReps              int // repetitions of each traced measurement and probe
	probeMsgs              int // messages per messaging probe, over all nodes
	probeThreads           int // threads per core probe, over all nodes
	probeBarriers          int // barrier messages per barrier probe, over all nodes
}

// The paper's tables are 16,384 bodies over 4 steps. These sizes are scaled
// down so that one invocation (three set-ups and about nine timed pairs) ends
// within 30 s: the driver makes 92 invocations in 57 minutes.
var (
	full = sizes{smallNodes: 64, largeNodes: 1024, bodies: 4096, vertices: 16384, prIters: 6,
		emNodes: 8192, emIters: 2, setupRounds: 3, minPairs: 3, layerReps: 3,
		probeMsgs: 1 << 17, probeThreads: 1 << 17, probeBarriers: 1 << 15}
	tiny = sizes{smallNodes: 8, largeNodes: 8, bodies: 256, vertices: 512, prIters: 3,
		emNodes: 512, emIters: 2, setupRounds: 1, minPairs: 1, layerReps: 1,
		probeMsgs: 1 << 10, probeThreads: 1 << 10, probeBarriers: 1 << 8}
)

// app is one generated input with its host reference solution.
type app interface {
	// run executes one full run, construction included as users pay it, and
	// keeps the result for check.
	run(mcfg machine.Config, spec dpa.Spec, sp *spanLog) stats.Run
	// check compares the last run's result with the host reference.
	check() error
	// build performs the app's construction alone, for the apps whose public
	// runner does not let the benchmark time construction inside run.
	build()
}

// workload is one row of the benchmark's fixed matrix.
type workload struct {
	name, why string
	large     bool // runs on sizes.largeNodes, else on sizes.smallNodes
	planned   bool // DPASpec(50, WithShape()), else the paper's DPASpec(50)
	phases    func(sz sizes) int
	prepare   func(seed int64, nodes int, sz sizes) app
}

var workloads = []workload{
	{name: "bh64_static",
		why:    "Barnes-Hut, 84% of threads reuse an M/D-table copy and messages are few: core's spawn/reuse path and the app body do the work; bypasses construction and messaging",
		phases: func(sizes) int { return 1 }, prepare: prepareBH},
	{name: "pagerank64_planned", planned: true,
		why:    "PageRank phase loop on a skewed RMAT graph, half the spawns fetch and priors warm from iteration 2: core's fetch path and the planner do the work; bypasses construction",
		phases: func(sz sizes) int { return sz.prIters }, prepare: preparePageRank},
	{name: "em3d1024_static", large: true,
		why:    "EM3D with 8 graph nodes per machine node: host time is per-phase runtime construction, scheduling 1024 procs and messaging at 1.0 objects/message; bypasses the app body and reuse",
		phases: func(sz sizes) int { return 2 * sz.emIters }, prepare: prepareEM3D},
	{name: "em3d1024_planned", large: true, planned: true,
		why:    "Same inputs and the identical simulated schedule as em3d1024_static, so the pair isolates the host cost of planner and prior state",
		phases: func(sz sizes) int { return 2 * sz.emIters }, prepare: prepareEM3D},
}

func (w workload) nodes(sz sizes) int {
	if w.large {
		return sz.largeNodes
	}
	return sz.smallNodes
}

func (w workload) spec() dpa.Spec {
	if w.planned {
		return dpa.DPASpec(50, dpa.WithShape())
	}
	return dpa.DPASpec(50)
}

// machineFor is the T3D model at the workload's node count under engine e.
func machineFor(nodes int, e dpa.Engine) machine.Config {
	c := dpa.DefaultT3D(nodes)
	c.Engine, c.EngineTuning = e.Kind(), e.Tuning()
	return c
}

// within reports whether got is within tol of want, relative to max(1, |want|).
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// bhApp is one Barnes-Hut force step. The step is composed here as
// bh.RunSteps composes it, because RunSteps does not return the accelerations
// and does not let the caller time tree build and distribution.
type bhApp struct {
	bodies []nbody.Body
	prm    bh.Params
	nodes  int
	ref    [][3]float64 // Tree.ForceOn on every refEvery-th body
	acc    [][3]float64
}

const refEvery = 16

func prepareBH(seed int64, nodes int, sz sizes) app {
	a := &bhApp{bodies: nbody.Plummer(sz.bodies, seed), prm: bh.DefaultParams(), nodes: nodes}
	t := bh.Build(a.bodies, a.prm.LeafCap)
	for i := 0; i < len(a.bodies); i += refEvery {
		a.ref = append(a.ref, t.ForceOn(int32(i), a.prm.Theta, a.prm.Eps, a.prm.Quad, a.prm.Costs, nil, nil))
	}
	return a
}

func (a *bhApp) distribute(nodes int) (*bh.Dist, []nbody.Body) {
	cur := append([]nbody.Body(nil), a.bodies...)
	t := bh.Build(cur, a.prm.LeafCap)
	return bh.Distribute(t, nodes, a.prm.ReplDepth, nil), cur
}

func (a *bhApp) build() { a.distribute(a.nodes) }

func (a *bhApp) run(mcfg machine.Config, spec dpa.Spec, sp *spanLog) stats.Run {
	end := sp.begin("app.build")
	d, cur := a.distribute(mcfg.Nodes)
	end()
	a.acc = make([][3]float64, len(cur))
	work := make([]float64, len(cur))
	end = sp.begin("driver.run_phase")
	run := driver.RunPhase(mcfg, d.Space, spec, func(rt driver.Runtime, ep *fm.EP, nd *machine.Node) {
		bh.ForcePhase(rt, nd, d, a.prm, a.acc, work)
	}, driver.WithPriors(driver.NewPriorStore(), "force"))
	end()
	nbody.Leapfrog(cur, a.acc, a.prm.DT)
	return run
}

func (a *bhApp) check() error {
	for k, want := range a.ref {
		got := a.acc[k*refEvery]
		for d := range want {
			if !within(got[d], want[d], 1e-9) {
				return fmt.Errorf("bh: body %d acceleration %v, host reference %v", k*refEvery, got, want)
			}
		}
	}
	return nil
}

// em3dApp is iters E/H update pairs of EM3D through the public runner.
type em3dApp struct {
	prm        em3d.Params
	nodes      int
	iters      int
	refE, refH []float64
	e, h       []float64
}

func prepareEM3D(seed int64, nodes int, sz sizes) app {
	a := &em3dApp{prm: em3d.DefaultParams(sz.emNodes), nodes: nodes, iters: sz.emIters}
	a.prm.Seed = seed
	a.refE, a.refH = em3d.SeqIterate(a.prm, nodes, a.iters)
	return a
}

func (a *em3dApp) build() { em3d.Build(a.prm, a.nodes) }

func (a *em3dApp) run(mcfg machine.Config, spec dpa.Spec, _ *spanLog) stats.Run {
	run, g := em3d.RunIters(mcfg, spec, a.prm, a.iters)
	a.e, a.h = g.Values()
	return run
}

func (a *em3dApp) check() error {
	for i := range a.refE {
		if !within(a.e[i], a.refE[i], 1e-9) || !within(a.h[i], a.refH[i], 1e-9) {
			return fmt.Errorf("em3d: node %d = (%g, %g), host reference (%g, %g)", i, a.e[i], a.h[i], a.refE[i], a.refH[i])
		}
	}
	return nil
}

// prApp is iters PageRank iterations through the public runner.
type prApp struct {
	prm   graph.Params
	nodes int
	iters int
	ref   []float64
	ranks []float64
}

func preparePageRank(seed int64, nodes int, sz sizes) app {
	a := &prApp{prm: graph.DefaultParams(sz.vertices), nodes: nodes, iters: sz.prIters}
	a.prm.Seed = seed
	a.ref = graph.SeqPageRank(a.prm, nodes, a.iters)
	return a
}

func (a *prApp) build() { graph.Build(a.prm, a.nodes) }

func (a *prApp) run(mcfg machine.Config, spec dpa.Spec, _ *spanLog) stats.Run {
	var run stats.Run
	run, a.ranks = graph.RunPageRank(mcfg, spec, a.prm, a.iters)
	return run
}

func (a *prApp) check() error {
	for i := range a.ref {
		if !within(a.ranks[i], a.ref[i], 1e-12) {
			return fmt.Errorf("pagerank: rank[%d] = %g, host reference %g", i, a.ranks[i], a.ref[i])
		}
	}
	return nil
}
