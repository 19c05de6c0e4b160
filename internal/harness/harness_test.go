package harness

import (
	"strings"
	"testing"

	"dpa/internal/driver"
	"dpa/internal/stats"
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
	// apps: the key is the whole Spec.
	budget := driver.DPASpec(50, driver.WithShape())
	s.BH(2, budget)
	s.FMM(2, budget)
	budget.Core.MemBudget = 1 << 20
	s.BH(2, budget)
	s.FMM(2, budget)
	for _, m := range []struct {
		app  string
		memo map[memoKey]stats.Run
	}{{"BH", s.bhMemo}, {"FMM", s.fmmMemo}} {
		n := 0
		for k := range m.memo {
			if k.n == 2 && k.spec.Core.Planned {
				n++
			}
		}
		if n != 2 {
			t.Errorf("%s: specs differing only in MemBudget made %d memo entries, want 2", m.app, n)
		}
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
