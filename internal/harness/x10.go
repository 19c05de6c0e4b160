package harness

import (
	"dpa/internal/driver"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

// X10: the graph-analytics workload family. BFS, PageRank, and connected
// components are the irregular pointer-chasing computations DPA targets in
// their purest form: every neighbor access crosses a global pointer, there is
// almost no arithmetic to hide communication behind, and the footprint is
// data-dependent. The question: does the planner+prior stack still hold
// refetches at exactly zero on graphs, and what does retaining the copies
// cost in peak renamed-copy memory?

func init() {
	register(Experiment{ID: "X10", Title: "Graph analytics: DPA(50) vs planner+prior (extension)", Run: runX10})
}

func runX10(s *Session) {
	const nodes = 16
	prm := graph.DefaultParams(s.W.GraphVertices)
	s.printf("BFS, PageRank, and connected components on an RMAT graph of %d\n", prm.Vertices)
	s.printf("vertices (avg degree %d) over %d nodes. Static DPA(50) drops its\n", prm.Degree, nodes)
	s.printf("renamed copies at every strip boundary and refetches them; the\n")
	s.printf("planner+prior row keeps every copy across strip boundaries ('peak\n")
	s.printf("copies' is what that costs) and must report exactly 0 refetches.\n\n")

	// Each app's cell; the rows vary its Spec. BFS starts at vertex 0.
	cell := func(app string) Cell {
		return Cell{App: app, Graph: prm, Iters: 3, Machine: machine.DefaultT3D(nodes)}
	}
	apps := []struct {
		name string
		cell Cell
	}{
		{"BFS", cell("bfs")},
		{"PageRank", cell("pagerank")},
		{"CC", cell("cc")},
	}

	for _, app := range apps {
		s.printf("%s, %d vertices\n", app.name, prm.Vertices)
		s.printf("%-14s %12s %10s %10s %12s %10s\n",
			"runtime", "time", "fetches", "reuses", "peak copies", "refetches")
		row := func(spec driver.Spec) stats.Run {
			c := app.cell
			c.Spec = spec
			r := s.Run(c)
			s.printf("%-14s %10.2fms %10d %10d %10.1fKB %10d\n",
				spec, s.Sec(r)*1e3, r.RT.Fetches, r.RT.Reuses,
				float64(r.RT.PeakArrivedBytes)/1024, r.RT.Refetches)
			return r
		}
		row(driver.DPASpec(50))
		if pr := row(driver.DPASpec(50, driver.WithShape())); pr.RT.Refetches != 0 {
			s.printf("REFETCH REGRESSION: planned mode refetched %d times\n", pr.RT.Refetches)
		}
		s.printf("\n")
	}
}
