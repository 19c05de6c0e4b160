package harness

import (
	"dpa/internal/driver"
	"dpa/internal/machine"
)

// X5: loss-rate sweep. The paper assumes reliable delivery; this extension
// measures what that assumption costs when it has to be earned: seeded
// message loss from 0% to 10% with the retransmission protocol recovering
// every drop, on the EM3D kernel and the Barnes-Hut force phase.

func init() {
	register(Experiment{ID: "X5", Title: "Message-loss sweep: reliability overhead and recovery (extension)", Run: runX5})
}

// faultSweepRates are the injected drop rates; 0% still runs the reliability
// protocol (window, acks, timers) to isolate its fault-free overhead.
var faultSweepRates = []float64{0, 0.01, 0.02, 0.05, 0.10}

const faultSweepSeed = 7

func runX5(s *Session) {
	const nodes = 16
	spec := driver.DPASpec(50)
	s.printf("Seeded message loss on %d nodes under DPA(50), recovered by the\n", nodes)
	s.printf("per-destination-window retransmission protocol. The 0%% row runs the\n")
	s.printf("protocol with no loss (pure overhead: acks and sequencing); overhead\n")
	s.printf("is relative to the fault-free run without the reliability layer.\n\n")

	// Each app's fault-free cell, no reliability layer, is its baseline; the
	// sweep varies only the cell's fault plan.
	apps := []struct {
		name string
		cell Cell
	}{
		{"EM3D", s.em3dCell(nodes, spec, 1)},
		{"BH", s.bhCell(nodes, spec)},
	}

	for _, app := range apps {
		base := s.Run(app.cell)
		s.printf("%s (fault-free: %.2fms)\n", app.name, s.Clock().Seconds(base.Makespan)*1e3)
		s.printf("%8s %12s %10s %10s %12s %10s\n",
			"loss", "time", "dropped", "retrans", "dups suppr", "overhead")
		for _, rate := range faultSweepRates {
			c := app.cell
			c.Machine.Faults = machine.DefaultFaults(faultSweepSeed, rate)
			r := s.Run(c)
			over := float64(r.Makespan)/float64(base.Makespan) - 1
			status := ""
			if r.Err != nil {
				status = "  DEGRADED"
			}
			s.printf("%7.0f%% %10.2fms %10d %10d %12d %+9.1f%%%s\n",
				rate*100, s.Clock().Seconds(r.Makespan)*1e3,
				r.Faults.Dropped, r.Faults.Retransmits, r.Faults.DupsSuppressed,
				over*100, status)
		}
		s.printf("\n")
	}
}
