package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
)

func TestBreakdownCategories(t *testing.T) {
	var b Breakdown
	b.Cycles[sim.Compute] = 100
	b.Cycles[sim.MemOv] = 10
	b.Cycles[sim.SchedOv] = 5
	b.Cycles[sim.HashOv] = 3
	b.Cycles[sim.SendOv] = 7
	b.Cycles[sim.RecvOv] = 2
	b.Cycles[sim.PollOv] = 1
	b.Cycles[sim.HandlerOv] = 4
	b.Cycles[sim.Idle] = 50
	if b.Local() != 118 {
		t.Errorf("Local = %d", b.Local())
	}
	if b.CommOverhead() != 14 {
		t.Errorf("CommOverhead = %d", b.CommOverhead())
	}
	if b.Busy() != 132 {
		t.Errorf("Busy = %d", b.Busy())
	}
}

func TestMergeAddsMakespansAndCycles(t *testing.T) {
	a := Run{Makespan: 100, Nodes: make([]Breakdown, 2)}
	a.Nodes[0].Cycles[sim.Compute] = 10
	a.Nodes[0].MsgsSent = 3
	b := Run{Makespan: 50, Nodes: make([]Breakdown, 2)}
	b.Nodes[0].Cycles[sim.Compute] = 5
	b.Nodes[1].BytesSent = 77
	a.Merge(b)
	if a.Makespan != 150 {
		t.Errorf("makespan = %d", a.Makespan)
	}
	if a.Nodes[0].Cycles[sim.Compute] != 15 || a.Nodes[0].MsgsSent != 3 {
		t.Errorf("node 0 merge wrong: %+v", a.Nodes[0])
	}
	if a.Nodes[1].BytesSent != 77 {
		t.Errorf("node 1 merge wrong")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a Run
	b := Run{Makespan: 10, Nodes: make([]Breakdown, 3)}
	a.Merge(b)
	if a.Makespan != 10 || len(a.Nodes) != 3 {
		t.Fatalf("merge into empty: %+v", a)
	}
}

// TestHostSchedMergeAndString: merged phases add each worker's counters,
// barrier wait included, and the stderr line prints the wait per worker.
func TestHostSchedMergeAndString(t *testing.T) {
	phase := func(wait0, wait1 int64) Run {
		return Run{Nodes: make([]Breakdown, 2), Host: &HostSched{Workers: 2, Windows: 10, PerWorker: []sim.WorkerStats{
			{Worker: 0, Resumes: 4, Parks: 1, WaitNs: wait0},
			{Worker: 1, Resumes: 3, Steals: 2, WaitNs: wait1},
		}}}
	}
	var r Run
	r.Merge(phase(1_000_000, 2_500_000))
	r.Merge(phase(2_000_000, 2_500_000))
	const want = "workers=2 windows=20 resumes=14 steals=4 parks=2 wait=3.0/5.0ms"
	if got := r.Host.String(); got != want {
		t.Errorf("host sched line = %q, want %q", got, want)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := Run{Makespan: 1234, Nodes: make([]Breakdown, 2)}
	r.Nodes[0].Cycles[sim.Compute] = 100
	r.Nodes[1].Cycles[sim.Compute] = 50
	r.Nodes[0].MsgsSent = 3
	r.RT.ThreadsRun = 42
	r.Faults.Dropped = 2

	var b bytes.Buffer
	if err := r.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"dpa_makespan_cycles 1234",
		`dpa_cycles_total{category="compute"} 150`,
		"dpa_busy_max_cycles 100",
		"dpa_busy_mean_cycles 75",
		"dpa_msgs_sent_total 3",
		"dpa_threads_run_total 42",
		`dpa_faults_injected_total{kind="drop"} 2`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("prometheus output missing %q:\n%s", w, out)
		}
	}

	var j bytes.Buffer
	if err := r.Metrics().WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(j.Bytes()) {
		t.Fatalf("metrics JSON invalid:\n%s", j.String())
	}

	// Phase labels let several phases share one registry.
	reg := obs.NewRegistry()
	r.MetricsInto(reg, "p1")
	var pb bytes.Buffer
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pb.String(), `dpa_makespan_cycles{phase="p1"} 1234`) {
		t.Errorf("phase label missing:\n%s", pb.String())
	}
}

func TestMergeConcatenatesTimelines(t *testing.T) {
	tlOf := func(cat sim.Category, cycles sim.Time) *machine.Timeline {
		tl := &machine.Timeline{
			BinWidth: 10,
			Bins:     make([][][sim.NumCategories]sim.Time, 1),
		}
		var b [sim.NumCategories]sim.Time
		b[cat] = cycles
		tl.Bins[0] = append(tl.Bins[0], b)
		return tl
	}
	p1 := Run{Makespan: 100, Nodes: make([]Breakdown, 1), Timeline: tlOf(sim.Compute, 10)}
	p2 := Run{Makespan: 50, Nodes: make([]Breakdown, 1), Timeline: tlOf(sim.Idle, 7)}

	var total Run
	total.Merge(p1)
	total.Merge(p2)

	tl := total.Timeline
	if tl == nil {
		t.Fatal("merged run lost its timeline")
	}
	// Phase 1's bin stays at t=0; phase 2's lands offset by phase 1's
	// makespan (bin 100/10 = 10). Before the fix, Merge kept only the
	// latest phase's timeline, so phase 1's activity vanished.
	if got := tl.Bins[0][0][sim.Compute]; got != 10 {
		t.Errorf("phase-1 bin = %d, want 10 (earlier phase dropped?)", got)
	}
	if len(tl.Bins[0]) != 11 {
		t.Fatalf("merged bins = %d, want 11", len(tl.Bins[0]))
	}
	if got := tl.Bins[0][10][sim.Idle]; got != 7 {
		t.Errorf("phase-2 bin = %d, want 7 at offset 10", got)
	}
	// The phase runs' own timelines must be untouched.
	if len(p1.Timeline.Bins[0]) != 1 || len(p2.Timeline.Bins[0]) != 1 {
		t.Error("merge mutated a source timeline")
	}
}

func TestMergeMismatchedPanics(t *testing.T) {
	a := Run{Nodes: make([]Breakdown, 2)}
	b := Run{Nodes: make([]Breakdown, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Merge(b)
}

func TestRTStatsMerge(t *testing.T) {
	a := RTStats{ThreadsRun: 10, Fetches: 5, PeakOutstanding: 7, PeakArrivedBytes: 100}
	b := RTStats{ThreadsRun: 20, Fetches: 2, PeakOutstanding: 3, PeakArrivedBytes: 300}
	a.merge(b)
	if a.ThreadsRun != 30 || a.Fetches != 7 {
		t.Errorf("sums wrong: %+v", a)
	}
	if a.PeakOutstanding != 7 || a.PeakArrivedBytes != 300 {
		t.Errorf("peaks wrong: %+v", a)
	}
}

func TestCollect(t *testing.T) {
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	makespan, _ := m.Run(func(n *machine.Node) {
		n.Charge(sim.Compute, sim.Time(100*(n.ID()+1)))
		if n.ID() == 0 {
			n.Send(1, 0, nil, 10)
		} else {
			n.WaitMessage()
		}
	})
	r := Collect(m, makespan)
	if len(r.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(r.Nodes))
	}
	if r.Nodes[0].Cycles[sim.Compute] != 100 || r.Nodes[1].Cycles[sim.Compute] != 200 {
		t.Errorf("compute cycles wrong")
	}
	if r.MsgsSent() != 1 || r.BytesSent() != 10 {
		t.Errorf("message totals wrong: %d/%d", r.MsgsSent(), r.BytesSent())
	}
}

func TestAvgPerNode(t *testing.T) {
	r := Run{Nodes: make([]Breakdown, 2)}
	r.Nodes[0].Cycles[sim.Compute] = 100
	r.Nodes[1].Cycles[sim.Compute] = 300
	r.Nodes[0].Cycles[sim.SendOv] = 20
	r.Nodes[1].Cycles[sim.Idle] = 40
	local, comm, idle := r.AvgPerNode()
	if local != 200 || comm != 10 || idle != 20 {
		t.Errorf("avg = %d/%d/%d", local, comm, idle)
	}
}

// TestImbalanceAndIdleSplit: the table must name the node the run waited for
// and say how much of the idle time was barrier wait and how much fetch wait.
func TestImbalanceAndIdleSplit(t *testing.T) {
	r := Run{Makespan: 400, Nodes: make([]Breakdown, 4)}
	for i, busy := range []sim.Time{100, 100, 400, 200} {
		r.Nodes[i].Cycles[sim.Compute] = busy
		r.Nodes[i].Cycles[sim.Idle] = 400 - busy
	}
	r.Nodes[1].Cycles[sim.Idle] -= 100
	r.Nodes[1].Cycles[sim.FetchStall] = 100
	if got, node := r.Imbalance(); got != 2 || node != 2 {
		t.Errorf("Imbalance = %v at node %d, want 2 at node 2 (busiest 400 over mean 200)", got, node)
	}
	table := r.Table(100) // 100 Hz: one cycle is 0.01 s
	for _, w := range []string{
		"idle           2.000 s/node (barrier 1.750, fetch 0.250)\n",
		"balance   max/mean busy 2.00 (node 2)\n",
	} {
		if !strings.Contains(table, w) {
			t.Errorf("table missing %q:\n%s", w, table)
		}
	}

	var idle Run
	if got, _ := idle.Imbalance(); got != 0 {
		t.Errorf("Imbalance of an empty run = %v, want 0", got)
	}
	if strings.Contains(idle.Table(100), "balance") {
		t.Error("an empty run has no busiest node to print")
	}
}

func TestBarChartProportions(t *testing.T) {
	r := Run{Nodes: make([]Breakdown, 1)}
	r.Nodes[0].Cycles[sim.Compute] = 50
	r.Nodes[0].Cycles[sim.SendOv] = 25
	r.Nodes[0].Cycles[sim.Idle] = 25
	bar := r.BarChart(40)
	if len([]rune(bar)) != 40 {
		t.Fatalf("bar length %d", len(bar))
	}
	if strings.Count(bar, "#") != 20 || strings.Count(bar, "+") != 10 || strings.Count(bar, ".") != 10 {
		t.Errorf("bar = %q", bar)
	}
}

func TestBarChartEmpty(t *testing.T) {
	var r Run
	if got := r.BarChart(10); got != ".........." {
		t.Errorf("empty bar = %q", got)
	}
}

func TestSummaryContainsFields(t *testing.T) {
	r := Run{Makespan: 150e6, Nodes: make([]Breakdown, 1)}
	s := r.Summary(150e6)
	for _, tok := range []string{"time=1.0000s", "msgs=0", "idle"} {
		if !strings.Contains(s, tok) {
			t.Errorf("summary %q missing %q", s, tok)
		}
	}
}
