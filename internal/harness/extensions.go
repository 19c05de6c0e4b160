package harness

import (
	"fmt"

	"dpa/internal/core"
	"dpa/internal/driver"
	"dpa/internal/stats"
)

// Extension experiments (X*) go beyond the paper's reported tables and
// figures: they exercise design choices DESIGN.md calls out (queue
// discipline, cache capacity, communication intensity, sequential cache
// effects) on the same infrastructure.

func init() {
	register(Experiment{ID: "X1", Title: "EM3D: communication intensity sweep (extension)", Run: runX1})
	register(Experiment{ID: "X2", Title: "Ready-queue discipline: FIFO vs LIFO (extension)", Run: runX2})
	register(Experiment{ID: "X3", Title: "Bounded software-cache capacity (extension)", Run: runX3})
	register(Experiment{ID: "X4", Title: "Sequential data-cache effects of alignment (extension)", Run: runX4})
}

// em3dRun runs the EM3D kernel for one iteration pair at P=16.
func (s *Session) em3dRun(localFrac float64, spec driver.Spec) stats.Run {
	c := s.em3dCell(16, spec, 1)
	c.EM3D.LocalFrac = localFrac
	return s.Run(c)
}

func runX1(s *Session) {
	s.printf("EM3D (%d+%d graph nodes, degree 10) on 16 nodes, one E/H pair.\n", s.W.EM3DNodes, s.W.EM3DNodes)
	s.printf("With little computation per remote read, the runtimes' message\nbehaviour dominates; the DPA advantage grows with the remote fraction.\n\n")
	s.printf("%8s  %22s %22s %22s\n", "", "DPA(50)", "Caching", "Blocking")
	s.printf("%8s  %12s %9s %12s %9s %12s %9s\n",
		"% local", "time", "req msgs", "time", "req msgs", "time", "req msgs")
	for _, lf := range []float64{0.9, 0.75, 0.5, 0.25} {
		s.printf("%8.0f", lf*100)
		for _, spec := range []driver.Spec{driver.DPASpec(50), driver.CachingSpec(), driver.BlockingSpec()} {
			r := s.em3dRun(lf, spec)
			s.printf("  %9.2fms %9d", s.Clock().Seconds(r.Makespan)*1e3, r.RT.ReqMsgs)
		}
		s.printf("\n")
	}
}

func runX2(s *Session) {
	s.printf("DPA ready-queue discipline on 16 nodes: FIFO preserves the\nreply-grouped order; LIFO runs depth-first (subtrees finish before new\nones start), trading grouping for outstanding state.\n\n")
	s.printf("%8s %14s %16s %14s %16s\n", "queue", "BH time", "BH peak outst.", "FMM time", "FMM peak outst.")
	for _, lifo := range []bool{false, true} {
		cfg := core.Default()
		cfg.LIFO = lifo
		spec := driver.Spec{Kind: driver.DPA, Core: cfg}
		b := s.BH(16, spec)
		f := s.FMM(16, spec)
		name := "FIFO"
		if lifo {
			name = "LIFO"
		}
		s.printf("%8s %13.2fs %16d %13.2fs %16d\n", name,
			s.Sec(b), b.RT.PeakOutstanding, s.Sec(f), f.RT.PeakOutstanding)
	}
}

func runX3(s *Session) {
	s.printf("Software-caching runtime with a bounded cache (FIFO eviction),\nBarnes-Hut on 16 nodes. Capacity misses force refetches; unbounded is\nthe (generous) configuration used in T2/T3.\n\n")
	s.printf("%10s %12s %12s %10s\n", "capacity", "fetches", "msgs", "time")
	for _, capacity := range []int{0, 8192, 2048, 512, 128} {
		spec := driver.CachingSpec()
		spec.Caching.Capacity = capacity
		r := s.BH(16, spec)
		label := "unbounded"
		if capacity > 0 {
			label = fmt.Sprintf("%d", capacity)
		}
		s.printf("%10s %12d %12d %9.2fs\n", label, r.RT.Fetches, r.MsgsSent(), s.Sec(r))
	}
}

func runX4(s *Session) {
	s.printf("Data-cache model hit rates on ONE node (no communication): how\nmuch does scheduling order alone change locality? The paper's footnote\nargues the effect is small on the T3D's L1; Section 6 flags sequential\ncache optimization via DPA as future work.\n\n")
	s.printf("%-14s %14s %14s\n", "version", "BH hit rate", "FMM hit rate")
	specs := []driver.Spec{driver.DPASpec(10), driver.DPASpec(50), driver.DPASpec(300)}
	lifo := core.Default()
	lifo.LIFO = true
	specs = append(specs, driver.Spec{Kind: driver.DPA, Core: lifo}, driver.CachingSpec())
	names := []string{"DPA(10)", "DPA(50)", "DPA(300)", "DPA(50) LIFO", "Caching"}
	for i, spec := range specs {
		b := s.BH(1, spec)
		f := s.FMM(1, spec)
		bt := b.Total()
		ft := f.Total()
		s.printf("%-14s %13.1f%% %13.1f%%\n", names[i], bt.HitRate()*100, ft.HitRate()*100)
	}
}
