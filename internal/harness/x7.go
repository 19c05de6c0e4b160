package harness

import (
	"dpa/internal/driver"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// X7: planned mode vs the static sweep. The paper picks one strip size per
// application by hand. Planned mode replaces the hand-picked strip with a
// closed-form cost model over each strip's reuse summary (DESIGN.md §11):
// strip size from the latency/batching/memory bounds, per-destination
// aggregation limits from the owner histogram, and reuse-region pinning in
// the D-table so every remote object is fetched exactly once per region;
// repeated phases start from the previous phase of their kind (§13). The
// questions this experiment answers: does first contact cost anything (it
// must not — the first strip is already model-chosen), are refetches
// structurally zero, and does the planned workload beat the best static
// strip?

func init() {
	register(Experiment{ID: "X7", Title: "Predictive planner vs static strip sweep (extension)", Run: runX7})
}

// x7Strips is the static sweep planned mode is judged against.
var x7Strips = []int{10, 25, 50, 100, 300}

func runX7(s *Session) {
	const nodes = 16
	s.printf("Static strip-size sweep vs planned mode on %d nodes. The planner\n", nodes)
	s.printf("sizes every strip, the first one included, so its numbers carry its\n")
	s.printf("cold start. 'plans/mispredicts' counts model decisions and hand-offs\n")
	s.printf("to the bounded controller; refetches must be exactly zero.\n\n")

	// Each app's cell; the rows vary its Spec.
	apps := []struct {
		name string
		cell Cell
	}{
		{"BH", s.bhCell(nodes, driver.Spec{})},
		{"FMM", s.fmmCell(nodes, driver.Spec{})},
		{"EM3D", s.em3dCell(nodes, driver.Spec{}, 4)},
	}

	for _, app := range apps {
		s.printf("%s\n", app.name)
		s.printf("%-12s %12s %10s %10s %10s\n",
			"runtime", "time", "fetches", "refetches", "reqmsgs")
		row := func(spec driver.Spec) stats.Run {
			c := app.cell
			c.Spec = spec
			r := s.Run(c)
			s.printf("%-12s %10.2fms %10d %10d %10d\n",
				spec, s.Sec(r)*1e3, r.RT.Fetches, r.RT.Refetches, r.RT.ReqMsgs)
			return r
		}
		best := sim.Time(0)
		for _, strip := range x7Strips {
			r := row(driver.DPASpec(strip))
			if best == 0 || r.Makespan < best {
				best = r.Makespan
			}
		}
		pr := row(driver.DPASpec(50, driver.WithShape()))
		s.printf("planner: %d plans, %d mispredicts, %d region releases, final strip %d\n",
			pr.RT.PlanStrips, pr.RT.PlanMispredicts, pr.RT.RegionReleases, pr.RT.FinalStrip)
		s.printf("planner vs best static %+.2f%%\n\n", (float64(pr.Makespan)/float64(best)-1)*100)
	}
}
