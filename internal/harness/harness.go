// Package harness defines the paper's experiments: one registered entry per
// table and figure of the evaluation section (as reconstructed in
// DESIGN.md), each of which runs the necessary simulations and renders the
// same rows/series the paper reports. The cmd/paper binary runs them all;
// bench_test.go exposes one benchmark per experiment.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dpa/internal/bh"
	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/fmm"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

// Workload sets the problem sizes. Full matches the paper; Scaled is a
// CI-friendly reduction with the same shape.
type Workload struct {
	Name      string
	BHBodies  int
	BHSteps   int
	FMMBodies int
	FMMTerms  int
	// EM3DNodes is the per-kind node count for the EM3D extension
	// experiments.
	EM3DNodes int
	// GraphVertices sizes the graph-analytics extension experiments (BFS,
	// PageRank, connected components).
	GraphVertices int
	Seed          int64
	// MaxNodes caps processor sweeps (64 reproduces the paper's T3D).
	MaxNodes int
}

// Full returns the paper's workload: Barnes-Hut with 16,384 bodies for 4
// steps; FMM with 32,768 bodies and 29 terms for 1 step; 64 nodes.
func Full() Workload {
	return Workload{Name: "full", BHBodies: 16384, BHSteps: 4,
		FMMBodies: 32768, FMMTerms: 29, EM3DNodes: 16384, GraphVertices: 16384,
		Seed: 42, MaxNodes: 64}
}

// Scaled returns a reduced workload with the same qualitative behaviour.
func Scaled() Workload {
	return Workload{Name: "scaled", BHBodies: 4096, BHSteps: 1,
		FMMBodies: 8192, FMMTerms: 29, EM3DNodes: 4096, GraphVertices: 4096,
		Seed: 42, MaxNodes: 64}
}

// procSweep returns the paper's processor counts up to the cap.
func (w Workload) procSweep(from int) []int {
	var ps []int
	for p := from; p <= w.MaxNodes; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// Session runs experiments with memoized simulation results, so that
// experiments sharing a cell (e.g. the T2 table and the F3 speedup curves, or
// X1's 75%-local EM3D row and X5's fault-free baseline) pay for it once.
type Session struct {
	W   Workload
	Out io.Writer

	memo   map[Cell]stats.Run
	bhSeq  *stats.Run
	fmmSeq *stats.Run
}

// NewSession starts a session over the given workload sizes.
func NewSession(w Workload, out io.Writer) *Session {
	return &Session{W: w, Out: out, memo: map[Cell]stats.Run{}}
}

// Clock returns cycles→seconds conversion under the default machine.
func (s *Session) Clock() machine.Config { return machine.DefaultT3D(1) }

// Sec converts a makespan to seconds.
func (s *Session) Sec(r stats.Run) float64 { return s.Clock().Seconds(r.Makespan) }

// Run executes c, or recalls its run: every run is deterministic, so equal
// cells give equal runs. A cell whose machine carries a sink (a tracer or a
// checkpoint) is executed every time, since the sink is an output of the run.
func (s *Session) Run(c Cell) stats.Run {
	if c.Machine.Obs != nil || c.Machine.Checkpoint != nil {
		r, _ := c.Exec()
		return r
	}
	if r, ok := s.memo[c]; ok {
		return r
	}
	r, _ := c.Exec()
	s.memo[c] = r
	return r
}

// bhCell is the workload's Barnes-Hut run under spec on n nodes.
func (s *Session) bhCell(n int, spec driver.Spec) Cell {
	return Cell{App: "bh", Bodies: s.W.BHBodies, Seed: s.W.Seed, Steps: s.W.BHSteps,
		Spec: spec, Machine: machine.DefaultT3D(n)}
}

// fmmCell is the workload's single FMM step under spec on n nodes.
func (s *Session) fmmCell(n int, spec driver.Spec) Cell {
	return Cell{App: "fmm", Bodies: s.W.FMMBodies, Seed: s.W.Seed, Steps: 1, Terms: s.W.FMMTerms,
		Spec: spec, Machine: machine.DefaultT3D(n)}
}

// em3dCell is the workload's EM3D kernel, Olden's default graph shape, for
// iters E/H pairs under spec on n nodes.
func (s *Session) em3dCell(n int, spec driver.Spec, iters int) Cell {
	return Cell{App: "em3d", EM3D: em3d.DefaultParams(s.W.EM3DNodes), Iters: iters,
		Spec: spec, Machine: machine.DefaultT3D(n)}
}

// BH runs (or recalls) the Barnes-Hut force phases under spec on n nodes.
func (s *Session) BH(n int, spec driver.Spec) stats.Run { return s.Run(s.bhCell(n, spec)) }

// FMM runs (or recalls) the FMM step under spec on n nodes.
func (s *Session) FMM(n int, spec driver.Spec) stats.Run { return s.Run(s.fmmCell(n, spec)) }

// BHSeq returns the sequential Barnes-Hut baseline (memoized).
func (s *Session) BHSeq() stats.Run {
	if s.bhSeq == nil {
		c := s.bhCell(1, driver.Spec{})
		r := bh.SeqSteps(c.bodies(), c.Steps, bh.DefaultParams())
		s.bhSeq = &r
	}
	return *s.bhSeq
}

// FMMSeq returns the sequential FMM baseline (memoized).
func (s *Session) FMMSeq() stats.Run {
	if s.fmmSeq == nil {
		c := s.fmmCell(1, driver.Spec{})
		r, _ := fmm.SeqStep(c.bodies(), c.fmmParams())
		s.fmmSeq = &r
	}
	return *s.fmmSeq
}

// Experiment is one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session)
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

// All returns the registered experiments in ID order.
func All() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in ID order against one session.
func RunAll(s *Session) {
	for _, e := range All() {
		fmt.Fprintf(s.Out, "\n================================================================\n")
		fmt.Fprintf(s.Out, "%s: %s  [workload: %s]\n", e.ID, e.Title, s.W.Name)
		fmt.Fprintf(s.Out, "================================================================\n")
		e.Run(s)
	}
}

// printf writes to the session's output.
func (s *Session) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}
