package harness

import (
	"errors"
	"fmt"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/nbody"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Cell is one run of the evaluation: an application, the inputs it reads, the
// runtime Spec and the machine. Every field is a scalar or a pointer, so a
// Cell is comparable and a Session memoizes runs by it; Exec is the one place
// a cell becomes a call into an application's runner. Fields an app does not
// read are ignored by Validate and Exec.
type Cell struct {
	// App is bh, fmm, em3d, bfs, pagerank or cc.
	App string

	// Bodies and Seed generate the n-body apps' bodies: a Plummer sphere for
	// bh, a uniform square for fmm. Steps counts their time steps and Terms
	// is FMM's expansion order.
	Bodies int
	Seed   int64
	Steps  int
	Terms  int

	// EM3D is em3d's bipartite graph (its NodesPerKind is the size).
	EM3D em3d.Params
	// Graph is the generated graph of bfs, pagerank and cc, and Source is
	// BFS's start vertex.
	Graph  graph.Params
	Source int
	// Iters counts em3d's E/H iteration pairs and pagerank's iterations.
	Iters int

	Spec    driver.Spec
	Machine machine.Config
}

// ErrBadRun is the sentinel matched by errors.Is for a Cell that Validate
// rejects on its own inputs: an unknown app, a non-positive size the app
// reads, an unknown graph kind, a BFS source outside the graph, or a machine
// the machine's validator rejects without a typed error.
var ErrBadRun = errors.New("harness: invalid run")

// Validate reports why c cannot run. Its own rejections wrap ErrBadRun; the
// Spec's wrap driver.ErrBadSpec, and the machine's keep their sentinels
// (sim.ErrBadTuning, sim.ErrBadFaults, machine.ErrBadCheckpoint).
func (c Cell) Validate() error {
	type size struct {
		name string
		v    int
	}
	var sizes []size
	switch c.App {
	case "bh":
		sizes = []size{{"Bodies", c.Bodies}, {"Steps", c.Steps}}
	case "fmm":
		sizes = []size{{"Bodies", c.Bodies}, {"Steps", c.Steps}, {"Terms", c.Terms}}
	case "em3d":
		sizes = []size{{"EM3D.NodesPerKind", c.EM3D.NodesPerKind}, {"Iters", c.Iters}}
	case "bfs", "cc":
		sizes = []size{{"Graph.Vertices", c.Graph.Vertices}, {"Graph.Degree", c.Graph.Degree}}
	case "pagerank":
		sizes = []size{{"Graph.Vertices", c.Graph.Vertices}, {"Graph.Degree", c.Graph.Degree}, {"Iters", c.Iters}}
	default:
		return fmt.Errorf("%w: unknown app %q", ErrBadRun, c.App)
	}
	// The generators allocate and index by these without checking.
	for _, s := range sizes {
		if s.v <= 0 {
			return fmt.Errorf("%w: %s must be positive, got %d", ErrBadRun, s.name, s.v)
		}
	}
	switch c.App {
	case "bfs", "pagerank", "cc":
		if c.Graph.Kind != graph.KindRMAT && c.Graph.Kind != graph.KindUniform {
			return fmt.Errorf("%w: unknown graph kind %q", ErrBadRun, c.Graph.Kind)
		}
	}
	if c.App == "bfs" && (c.Source < 0 || c.Source >= c.Graph.Vertices) {
		return fmt.Errorf("%w: BFS source %d outside [0,%d)", ErrBadRun, c.Source, c.Graph.Vertices)
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	m := c.Machine // Validate fills derived fields
	if err := m.Validate(); err != nil {
		if errors.Is(err, sim.ErrBadTuning) || errors.Is(err, sim.ErrBadFaults) || errors.Is(err, machine.ErrBadCheckpoint) {
			return err
		}
		return fmt.Errorf("%w: %w", ErrBadRun, err)
	}
	return nil
}

// Exec runs c and returns its merged statistics and the application's
// output: em3d's *em3d.Graph, fmm's *fmm.Result, BFS's distances, PageRank's
// ranks, CC's labels, and nil for bh. c must pass Validate.
func (c Cell) Exec() (stats.Run, any) {
	switch c.App {
	case "bh":
		return bh.RunSteps(c.Machine, c.Spec, c.bodies(), c.Steps, bh.DefaultParams()), nil
	case "fmm":
		return fmm.RunSteps(c.Machine, c.Spec, c.bodies(), c.Steps, c.fmmParams())
	case "em3d":
		return em3d.RunIters(c.Machine, c.Spec, c.EM3D, c.Iters)
	case "bfs":
		return graph.RunBFS(c.Machine, c.Spec, c.Graph, c.Source)
	case "pagerank":
		return graph.RunPageRank(c.Machine, c.Spec, c.Graph, c.Iters)
	case "cc":
		return graph.RunCC(c.Machine, c.Spec, c.Graph)
	}
	panic(fmt.Sprintf("harness: Exec of unknown app %q", c.App))
}

// bodies generates the n-body apps' bodies.
func (c Cell) bodies() []nbody.Body {
	if c.App == "fmm" {
		return nbody.Uniform2D(c.Bodies, c.Seed)
	}
	return nbody.Plummer(c.Bodies, c.Seed)
}

// fmmParams is FMM's default tree for the body count, at c's expansion order.
func (c Cell) fmmParams() fmm.Params {
	prm := fmm.DefaultParams(c.Bodies)
	prm.Terms = c.Terms
	return prm
}
