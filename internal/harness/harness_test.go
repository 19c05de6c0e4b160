package harness

import (
	"errors"
	"io"
	"strings"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/em3d"
	"dpa/internal/graph"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// tinyWorkload keeps harness tests fast.
func tinyWorkload() Workload {
	return Workload{Name: "tiny", BHBodies: 512, BHSteps: 1,
		FMMBodies: 512, FMMTerms: 8, EM3DNodes: 256, GraphVertices: 256,
		Seed: 1, MaxNodes: 4}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"F1", "F2", "F3", "F4", "F5", "F6", "T1", "T2", "T3", "T4", "X1", "X10", "X2", "X3", "X4", "X5", "X7", "X8", "X9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("T2"); !ok {
		t.Error("T2 missing")
	}
	if _, ok := Get("t2"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Get("Z9"); ok {
		t.Error("Z9 should not exist")
	}
}

func TestSessionMemoizes(t *testing.T) {
	var sb strings.Builder
	s := NewSession(tinyWorkload(), &sb)
	a := s.BH(2, driver.DPASpec(50))
	b := s.BH(2, driver.DPASpec(50))
	if a.Makespan != b.Makespan {
		t.Fatal("memoized run differs")
	}
	// Different knobs must not collide in the memo.
	c := s.BH(2, driver.DPASpec(10))
	if c.Makespan == 0 {
		t.Fatal("strip-10 run empty")
	}
	spec := driver.DPASpec(50)
	spec.Core.AggLimit = 1
	d := s.BH(2, spec)
	if d.RT.ReqMsgs == a.RT.ReqMsgs {
		t.Error("agg-limit variant hit the wrong memo entry")
	}
	// Caching-capacity variants must also be distinguished.
	unbounded := s.BH(2, driver.CachingSpec())
	bounded := driver.CachingSpec()
	bounded.Caching.Capacity = 8
	e := s.BH(2, bounded)
	if e.RT.Fetches <= unbounded.RT.Fetches {
		t.Errorf("bounded cache fetched %d, unbounded %d — capacity knob lost",
			e.RT.Fetches, unbounded.RT.Fetches)
	}
	// So must specs that differ in a field no ablation names, under both
	// apps: the key is the whole cell.
	budget := driver.DPASpec(50, driver.WithShape())
	s.BH(2, budget)
	s.FMM(2, budget)
	budget.Core.MemBudget = 1 << 20
	s.BH(2, budget)
	s.FMM(2, budget)
	for _, app := range []string{"bh", "fmm"} {
		n := 0
		for k := range s.memo {
			if k.App == app && k.Machine.Nodes == 2 && k.Spec.Core.Planned {
				n++
			}
		}
		if n != 2 {
			t.Errorf("%s: specs differing only in MemBudget made %d memo entries, want 2", app, n)
		}
	}

	// A cell two askers share makes exactly one entry, whichever asks first:
	// the memo of both askers together is one entry smaller than the sum of
	// each asker's alone.
	experiment := func(id string) func(*Session) {
		e, _ := Get(id)
		return e.Run
	}
	faulted := func(s *Session) {
		c := Cell{App: "em3d", EM3D: em3d.DefaultParams(s.W.EM3DNodes), Iters: 1,
			Spec: driver.DPASpec(50), Machine: machine.DefaultT3D(16)}
		c.Machine.Faults = machine.DefaultFaults(faultSweepSeed, 0.05)
		s.Run(c)
	}
	for _, tc := range []struct {
		name string
		a, b func(*Session)
	}{
		// X5's fault-free EM3D baseline is X1's 75%-local DPA(50) row.
		{"EM3D cell", experiment("X1"), experiment("X5")},
		// A faulted machine is part of the key like any other field.
		{"faulted-Config cell", faulted, experiment("X5")},
	} {
		entries := func(askers ...func(*Session)) int {
			s := NewSession(tinyWorkload(), io.Discard)
			for _, ask := range askers {
				ask(s)
			}
			return len(s.memo)
		}
		na, nb := entries(tc.a), entries(tc.b)
		for _, n := range []int{entries(tc.a, tc.b), entries(tc.b, tc.a)} {
			if n != na+nb-1 {
				t.Errorf("%s: both askers made %d entries, want %d + %d - 1", tc.name, n, na, nb)
			}
		}
	}
}

// TestCellValidate: every size an app reads must be positive, and fields it
// does not read are ignored; every rejection is typed, by the cell's own
// ErrBadRun or by the sentinel of the validator it came from.
func TestCellValidate(t *testing.T) {
	def := func(app string) Cell {
		gp := graph.DefaultParams(16384)
		return Cell{App: app, Bodies: 16384, Seed: 42, Steps: 1, Terms: 29,
			EM3D: em3d.DefaultParams(16384), Graph: gp, Iters: 4,
			Spec: driver.DPASpec(50), Machine: machine.DefaultT3D(16)}
	}
	with := func(app string, edit func(*Cell)) Cell { c := def(app); edit(&c); return c }
	for _, tc := range []struct {
		cell Cell
		want string // "" = accepted
		is   error
	}{
		{with("bh", func(c *Cell) { c.Bodies = -1 }), "harness: invalid run: Bodies must be positive, got -1", ErrBadRun},
		{with("em3d", func(c *Cell) { c.EM3D.NodesPerKind = -3 }), "harness: invalid run: EM3D.NodesPerKind must be positive, got -3", ErrBadRun},
		{with("fmm", func(c *Cell) { c.Terms = -1 }), "harness: invalid run: Terms must be positive, got -1", ErrBadRun},
		{with("pagerank", func(c *Cell) { c.Graph.Vertices = 0 }), "harness: invalid run: Graph.Vertices must be positive, got 0", ErrBadRun},
		{with("bh", func(c *Cell) { c.Bodies = 0 }), "harness: invalid run: Bodies must be positive, got 0", ErrBadRun},
		{with("bh", func(c *Cell) { c.Steps = 0 }), "harness: invalid run: Steps must be positive, got 0", ErrBadRun},
		{with("em3d", func(c *Cell) { c.Iters = -1 }), "harness: invalid run: Iters must be positive, got -1", ErrBadRun},
		{with("bfs", func(c *Cell) { c.Graph.Degree = -1 }), "harness: invalid run: Graph.Degree must be positive, got -1", ErrBadRun},

		// One accepted row per app, each with a field it does not read set
		// to a value that would be rejected if it did.
		{with("bh", func(c *Cell) { c.Graph.Vertices = 0 }), "", nil},
		{with("fmm", func(c *Cell) { c.Iters = 0 }), "", nil},
		{with("em3d", func(c *Cell) { c.Terms = -1 }), "", nil},
		{with("bfs", func(c *Cell) { c.Iters = -1 }), "", nil},
		{with("pagerank", func(c *Cell) { c.Bodies = -1 }), "", nil},
		{with("cc", func(c *Cell) { c.Bodies = 0 }), "", nil},

		// The cell's other own rejections.
		{def("nbody"), `harness: invalid run: unknown app "nbody"`, ErrBadRun},
		{with("cc", func(c *Cell) { c.Graph.Kind = "grid" }), `harness: invalid run: unknown graph kind "grid"`, ErrBadRun},
		{with("bfs", func(c *Cell) { c.Source = 16384 }), "harness: invalid run: BFS source 16384 outside [0,16384)", ErrBadRun},
		{with("pagerank", func(c *Cell) { c.Source = -1 }), "", nil},
		{with("bh", func(c *Cell) { c.Machine.Nodes = 0 }), "harness: invalid run: machine: Nodes = 0, must be positive", ErrBadRun},

		// The validators it composes keep their sentinels and messages.
		{with("bh", func(c *Cell) { c.Spec.Core.AggLimit = -1 }), "core: AggLimit must be >= 0 (0 = unlimited), got -1", driver.ErrBadSpec},
		{with("bh", func(c *Cell) { c.Machine.Engine, c.Machine.EngineTuning.Workers = sim.Parallel, 17 }),
			"sim: invalid engine tuning: workers = 17 exceeds the 16 simulated processes", sim.ErrBadTuning},
		{with("em3d", func(c *Cell) { c.Machine.Faults = machine.DefaultFaults(7, 2) }), "", sim.ErrBadFaults},
		{with("em3d", func(c *Cell) { c.Machine.Checkpoint = &machine.CheckpointSpec{} }),
			"machine: invalid checkpoint: capture time At = 0, must be positive", machine.ErrBadCheckpoint},
	} {
		err := tc.cell.Validate()
		if tc.is == nil {
			if err != nil {
				t.Errorf("%s %+v: rejected: %v", tc.cell.App, tc.cell, err)
			}
			continue
		}
		if !errors.Is(err, tc.is) {
			t.Errorf("%s: Validate = %v, want an error matching %v", tc.cell.App, err, tc.is)
		} else if tc.want != "" && err.Error() != tc.want {
			t.Errorf("%s: Validate = %q, want %q", tc.cell.App, err, tc.want)
		}
	}
}

// TestCellSeedsEM3D: an EM3D cell's seed builds its graph, so two cells that
// differ only in the seed run different graphs.
func TestCellSeedsEM3D(t *testing.T) {
	a := Cell{App: "em3d", EM3D: em3d.DefaultParams(256), Iters: 1,
		Spec: driver.DPASpec(50), Machine: machine.DefaultT3D(4)}
	b := a
	b.EM3D.Seed = 9
	ra, _ := a.Exec()
	rb, _ := b.Exec()
	if ta, tb := ra.Table(a.Machine.ClockHz), rb.Table(b.Machine.ClockHz); ta == tb {
		t.Fatalf("seeds %d and %d gave the same run table:\n%s", a.EM3D.Seed, b.EM3D.Seed, ta)
	}
}

func TestExperimentsProduceOutput(t *testing.T) {
	// Each experiment must render something containing its key tokens.
	tokens := map[string][]string{
		"T1":  {"Barnes-Hut", "FMM", "paper"},
		"T2":  {"DPA (50)", "Caching", "118.02"},
		"T3":  {"DPA (50)", "7.39", "54-fold"},
		"T4":  {"strip", "outst", "fetches"},
		"F1":  {"Blocking", "DPA +aggregation", "Caching", "local="},
		"F2":  {"strip size 300", "DPA"},
		"F3":  {"speedup", "DPA(50)", "Blocking"},
		"F4":  {"strip", "BH (P=16)"},
		"F5":  {"agg limit", "objs/msg"},
		"F6":  {"poll", "DPA(50)"},
		"X1":  {"EM3D", "req msgs"},
		"X2":  {"FIFO", "LIFO", "peak outst."},
		"X3":  {"unbounded", "fetches"},
		"X4":  {"hit rate", "LIFO"},
		"X5":  {"loss", "retrans", "overhead", "EM3D", "BH"},
		"X7":  {"DPA-PS(50)", "final strip", "planner vs best static", "EM3D"},
		"X9":  {"priorhits", "shapedruns", "planned vs static"},
		"X10": {"BFS", "PageRank", "peak copies", "refetches"},
	}
	for _, e := range All() {
		var sb strings.Builder
		w := tinyWorkload()
		w.MaxNodes = 4
		s := NewSession(w, &sb)
		e.Run(s)
		out := sb.String()
		if len(out) == 0 {
			t.Errorf("%s produced no output", e.ID)
			continue
		}
		for _, tok := range tokens[e.ID] {
			if !strings.Contains(out, tok) {
				t.Errorf("%s output missing %q:\n%s", e.ID, tok, out)
			}
		}
	}
}

func TestWorkloads(t *testing.T) {
	f := Full()
	if f.BHBodies != 16384 || f.BHSteps != 4 || f.FMMBodies != 32768 || f.FMMTerms != 29 {
		t.Errorf("Full() = %+v does not match the paper", f)
	}
	sc := Scaled()
	if sc.BHBodies >= f.BHBodies {
		t.Error("Scaled not smaller than Full")
	}
	ps := f.procSweep(1)
	if len(ps) != 7 || ps[0] != 1 || ps[6] != 64 {
		t.Errorf("procSweep = %v", ps)
	}
}
