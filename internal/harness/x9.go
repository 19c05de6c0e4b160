package harness

import (
	"dpa/internal/driver"
	"dpa/internal/stats"
)

// X9: planned mode on repeated phases. X7 judged single workloads; real runs
// repeat their phases — BH computes forces every timestep, FMM every step,
// EM3D alternates E and H halves — and the phases of one kind resemble each
// other far more than the cold machine-model prior resembles any of them.
// Planned mode folds each phase's measured reuse summary (per-owner fetch
// histograms, RTT EWMAs, iteration affinity) into a per-(phase-kind, node)
// table that survives in the runner (DESIGN.md §13), so the first strip of
// a repeated phase is planned from history: warm-started strip size,
// pre-sized aggregation batches, and owner-major iteration runs chosen at
// plan time. The
// questions: how far does it move repeated phases from the paper's static
// strip, and do refetches stay exactly zero?

func init() {
	register(Experiment{ID: "X9", Title: "Cross-phase priors and affinity-shaped tiles on repeated phases (extension)", Run: runX9})
}

func runX9(s *Session) {
	const nodes = 16
	s.printf("Repeated phases on %d nodes: the paper's static DPA(50) vs planned\n", nodes)
	s.printf("mode, whose cross-phase prior lifts the cold destLimit cap with\n")
	s.printf("measured per-owner volumes, seeds the latency bound with RTTs and\n")
	s.printf("shapes owner-major iteration runs, so each owner's batch fills in one\n")
	s.printf("contiguous run per strip. 'prior hits' counts boundary decisions\n")
	s.printf("taken from measured history. Planned refetches must stay exactly 0.\n\n")

	bhc := s.bhCell(nodes, driver.Spec{})
	bhc.Steps = 3
	fmmc := s.fmmCell(nodes, driver.Spec{})
	fmmc.Steps = 3
	// Heavier remote traffic than the default Olden shape (degree 16, 25%
	// local): per-owner strip volumes exceed the cold 8×agg destLimit cap,
	// the regime the prior's measured batch sizing is for. The defaults'
	// sparser graph sits under the cap, where warm and cold batching
	// coincide by construction.
	em3dc := s.em3dCell(nodes, driver.Spec{}, 4)
	em3dc.EM3D.Degree = 16
	em3dc.EM3D.LocalFrac = 0.25
	// Each app's cell; the rows vary its Spec.
	apps := []struct {
		name   string
		phases string
		cell   Cell
	}{
		{"BH", "3 steps", bhc},
		{"FMM", "3 steps", fmmc},
		{"EM3D", "4 iters (8 phases)", em3dc},
	}

	for _, app := range apps {
		s.printf("%s, %s\n", app.name, app.phases)
		s.printf("%-12s %12s %10s %10s %10s %10s %10s\n",
			"runtime", "time", "fetches", "refetches", "reqmsgs", "priorhits", "shapedruns")
		row := func(spec driver.Spec) stats.Run {
			c := app.cell
			c.Spec = spec
			r := s.Run(c)
			s.printf("%-12s %10.2fms %10d %10d %10d %10d %10d\n",
				spec, s.Sec(r)*1e3, r.RT.Fetches, r.RT.Refetches, r.RT.ReqMsgs,
				r.RT.PlanPriorHits, r.RT.ShapedRuns)
			return r
		}
		st := row(driver.DPASpec(50))
		ps := row(driver.DPASpec(50, driver.WithShape()))
		s.printf("prior tables: %.1f KB/node peak; %d mispredicts\n",
			float64(ps.RT.PriorBytes)/1024, ps.RT.PlanMispredicts)
		s.printf("planned vs static %+.2f%%\n\n", (float64(ps.Makespan)/float64(st.Makespan)-1)*100)
	}
}
