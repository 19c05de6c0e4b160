package core

import (
	"strings"
	"testing"

	"dpa/internal/gptr"
)

// plannedCfg returns a planned configuration starting from the given strip.
func plannedCfg(strip int) Config {
	cfg := Default()
	cfg.Strip = strip
	cfg.Planned = true
	return cfg
}

func TestPlannerForAllRunsEveryIteration(t *testing.T) {
	w := newWorld(4)
	const n = 200
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(i%4, obj{id: i}))
	}
	seen := make([]bool, n)
	w.run(plannedCfg(10), func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { seen[o.(obj).id] = true })
		})
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("iteration %d never ran", i)
		}
	}
}

func TestPlannerZeroRefetchesAcrossStrips(t *testing.T) {
	// The same pointers recur across many strips. Static mode drops copies at
	// every boundary and refetches; the planner keeps every copy across
	// boundaries, so under the memory budget every repeat is a table hit and the
	// refetch count is structurally zero — each object is fetched exactly
	// once.
	w := newWorld(2)
	const n = 32
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	cfg := plannedCfg(8)
	cfg.StripMax = 16 // force several strips per pass
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(4*n, func(i int) {
			rt.Spawn(ptrs[i%n], func(o gptr.Object) {})
		})
	})
	if st.Refetches != 0 {
		t.Fatalf("planned run refetched %d times, want 0: %+v", st.Refetches, st)
	}
	if st.Fetches != n {
		t.Fatalf("planned run fetched %d objects, want exactly %d (once each)", st.Fetches, n)
	}
	if st.PlanStrips < 2 {
		t.Fatalf("expected several planned strips, got %d", st.PlanStrips)
	}
}

func TestPlannerFirstContactIsWholeLoop(t *testing.T) {
	// With no reuse summary, the planner's first strip covers the whole loop
	// (bounded by StripMax): first contact has zero warm-up strips.
	w := newWorld(2)
	const n = 100
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	st, _ := w.run(plannedCfg(10), func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) {})
		})
	})
	if st.PlanStrips != 1 {
		t.Fatalf("first contact ran %d strips, want 1 (whole loop): %+v", st.PlanStrips, st)
	}
}

// TestPlannerDropsWholesaleOverBudget: with a memory budget that holds one
// working set of n objects but not two, a planned strip boundary keeps no
// copy once the table is over the budget — it drops every one, as the static
// strip does, and counts the strip as a misprediction. Two disjoint working
// sets are each fetched once; a set that returns after the drop is refetched,
// once per object.
func TestPlannerDropsWholesaleOverBudget(t *testing.T) {
	const n = 8
	for _, c := range []struct {
		name                   string
		iters                  int
		mispredicts, refetches int64
	}{
		{"disjoint", 2 * n, 3, 0},
		{"returning", 3 * n, 5, n},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(2)
			var ptrs []gptr.Ptr
			for i := 0; i < 2*n; i++ {
				ptrs = append(ptrs, w.space.Alloc(1, obj{id: i, size: 1024}))
			}
			cfg := plannedCfg(n)
			cfg.StripMin = 1
			cfg.StripMax = n // one working set per strip
			cfg.MemBudget = n * 1024
			st, _ := w.run(cfg, func(rt *RT) {
				rt.ForAll(c.iters, func(i int) {
					rt.Spawn(ptrs[i%(2*n)], func(o gptr.Object) {})
				})
			})
			if st.Fetches != int64(c.iters) || st.Refetches != c.refetches {
				t.Errorf("fetches=%d refetches=%d, want %d and %d", st.Fetches, st.Refetches, c.iters, c.refetches)
			}
			if st.PlanMispredicts != c.mispredicts {
				t.Errorf("%d mispredicted strips, want %d: %+v", st.PlanMispredicts, c.mispredicts, st)
			}
		})
	}
}

func TestPlannerMispredictionCountedNotCorrected(t *testing.T) {
	// A budget far smaller than any strip's fetch volume: the model's memory
	// bound cannot hold, every planned strip overflows and is counted as a
	// misprediction, and the strip follows the model's memory bound down.
	w := newWorld(2)
	const n = 256
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i, size: 4096}))
	}
	cfg := plannedCfg(64)
	cfg.MemBudget = 8 << 10 // two objects
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) {})
		})
	})
	if st.PlanMispredicts == 0 {
		t.Fatalf("overflowing strips were never flagged as mispredictions: %+v", st)
	}
	if st.StripShrinks == 0 {
		t.Fatalf("the model's memory bound never shrank the strip: %+v", st)
	}
}

// TestPlanStripInstallsClampedProposal: a strip flagged in the stall class
// (half its time stalled, the model not proposing to grow past it) still
// takes the model's proposal, clamped to the strip bounds; the misprediction
// is only counted.
func TestPlanStripInstallsClampedProposal(t *testing.T) {
	rt := &RT{Cfg: Default()}
	rt.Cfg.Planned = true
	rt.initCtl()
	rt.plan.rttPrior = 100
	rt.plan.modelled = true // forAllPlanned sized the first strip
	rt.ctl.strip = 100
	// busyPerIter = (1000-600)/10 = 40, so the latency bound proposes
	// 2*100/40+1 = 6 iterations, below the default minimum of 8.
	sig := stripSignals{iters: 10, fetches: 10, elapsed: 1000, stall: 600}
	proposal := rt.planPropose(sig)
	if bad := rt.planMispredicted(sig, proposal, rt.ctl.strip); proposal != 6 || !bad {
		t.Fatalf("proposal %d, mispredicted %v: want 6 in the stall class", proposal, bad)
	}
	rt.planStrip(sig)
	if rt.ctl.strip != rt.ctl.min {
		t.Fatalf("next strip = %d, want the proposal clamped to StripMin %d", rt.ctl.strip, rt.ctl.min)
	}
	if rt.st.PlanMispredicts != 1 || rt.st.PlanStrips != 1 {
		t.Fatalf("PlanMispredicts = %d, PlanStrips = %d, want 1 and 1",
			rt.st.PlanMispredicts, rt.st.PlanStrips)
	}
}

func TestPlannedRepliesGroupByOwner(t *testing.T) {
	// Interleaved spawns on two remote owners: each owner's reply batch
	// wakes its threads together, so they run as one contiguous group.
	w := newWorld(3)
	const per = 8
	var ptrs []gptr.Ptr
	for i := 0; i < 2*per; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%2, obj{id: 1 + i%2}))
	}
	var order []int
	w.run(plannedCfg(0), func(rt *RT) {
		rt.ForAll(len(ptrs), func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) { order = append(order, o.(obj).id) })
		})
	})
	if len(order) != 2*per {
		t.Fatalf("ran %d threads, want %d", len(order), 2*per)
	}
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("owner switched %d times in %v, want 1 (one contiguous group per owner)",
			switches, order)
	}
}

func TestRefetchCounter(t *testing.T) {
	w := newWorld(2)
	p := w.space.Alloc(1, obj{id: 1})
	cfg := Default()
	cfg.Strip = 1
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(3, func(i int) {
			rt.Spawn(p, func(o gptr.Object) {})
		})
	})
	if st.Fetches != 3 || st.Refetches != 2 {
		t.Fatalf("fetches=%d refetches=%d, want 3 and 2", st.Fetches, st.Refetches)
	}
}

// badConfig is a Config that Validate must reject with an error naming want.
type badConfig struct {
	cfg  Config
	want string
}

func checkValidate(t *testing.T, bad []badConfig, good []Config) {
	t.Helper()
	for i, b := range bad {
		err := b.cfg.Validate()
		if err == nil {
			t.Errorf("config %d: Validate accepted %+v", i, b.cfg)
		} else if !strings.Contains(err.Error(), b.want) {
			t.Errorf("config %d: error %q does not name %q", i, err, b.want)
		}
	}
	for _, ok := range good {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", ok, err)
		}
	}
}

// TestValidateRejectsBadAdaptiveConfigs checks the bounds of the adaptively
// sized strip: planned mode clamps every proposal to [StripMin, StripMax],
// so the bounds must be ordered once defaults apply.
func TestValidateRejectsBadAdaptiveConfigs(t *testing.T) {
	checkValidate(t, []badConfig{
		{func() Config { c := plannedCfg(50); c.StripMin = 100; c.StripMax = 10; return c }(), "min 100 > max 10"},
		{func() Config { c := plannedCfg(50); c.StripMin = -1; return c }(), "min=-1"},
		{func() Config { c := plannedCfg(50); c.MemBudget = -1; return c }(), "MemBudget"},
		// Inverted only once the zero bound takes its default: the minimum
		// above the default maximum, or the maximum below the default
		// minimum.
		{func() Config { c := plannedCfg(50); c.StripMin = 5000; return c }(), "min 5000 > max 4096"},
		{func() Config { c := plannedCfg(50); c.StripMax = 4; return c }(), "min 8 > max 4"},
	}, []Config{
		func() Config { c := plannedCfg(50); c.StripMin = 4096; return c }(),
		func() Config { c := plannedCfg(50); c.StripMax = 8; return c }(),
	})
}

// TestValidateRejectsBadPlannerConfigs checks the strip itself; planned mode
// takes either queue discipline.
func TestValidateRejectsBadPlannerConfigs(t *testing.T) {
	checkValidate(t, []badConfig{
		{func() Config { c := Default(); c.Strip = -1; return c }(), "Strip"},
	}, []Config{
		plannedCfg(0), // Strip 0 = one strip: explicitly valid
		func() Config { c := plannedCfg(50); c.LIFO = true; return c }(),
	})
}

func TestPlannedDestLimit(t *testing.T) {
	rt := &RT{Cfg: Default()}
	rt.Cfg.Planned = true
	rt.Cfg.AggLimit = 16
	d := rt.dests.touch(1)
	rt.ctl.strip = 100

	// No prediction: batch maximally (the cap), never the fragmenting base.
	if got := rt.destLimit(d); got != 128 {
		t.Fatalf("cold plannedDestLimit = %d, want cap 128", got)
	}

	// A predicted volume inside the cap rides one batch.
	rt.plan.prevIters = 100
	d.prevHist = 40
	if got := rt.destLimit(d); got != 128 {
		t.Fatalf("in-cap plannedDestLimit = %d, want cap 128", got)
	}

	// A heavy owner splits evenly under the cap: 300 predicted pointers over
	// ceil(300/128)=3 batches of ceil(300/3)=100.
	d.prevHist = 300
	if got := rt.destLimit(d); got != 100 {
		t.Fatalf("heavy plannedDestLimit = %d, want 100", got)
	}

	// The histogram scales with the strip-size ratio: the same histogram at
	// double the strip predicts double the volume (600 → 5 batches of 120).
	rt.ctl.strip = 200
	if got := rt.destLimit(d); got != 120 {
		t.Fatalf("scaled plannedDestLimit = %d, want 120", got)
	}

	// A warm plan (cross-phase prior) trusts its measured whole-phase volume
	// past the cold 8×base cap: the same 600 predicted pointers ride one
	// batch instead of splitting into five.
	rt.plan.warm = true
	if got := rt.destLimit(d); got != 600 {
		t.Fatalf("warm plannedDestLimit = %d, want uncapped 600", got)
	}
	rt.plan.warm = false
}

// TestPlanMispredictedCases pins what counts as a misprediction: exactly the
// outcomes that break a model promise — a budget overflow (either flavor), a
// refetch, or an uncovered stall the model would not fix; a stall the model
// already proposes to outgrow does not.
func TestPlanMispredictedCases(t *testing.T) {
	rt := &RT{Cfg: Default()}
	rt.Cfg.Planned = true
	stalled := stripSignals{iters: 10, fetches: 5, elapsed: 100, stall: 60}

	if !rt.planMispredicted(stripSignals{peakOver: true}, 10, 50) {
		t.Error("peak budget overflow not flagged")
	}
	rt.plan.overBudget = true
	if !rt.planMispredicted(stripSignals{}, 10, 50) {
		t.Error("live-region overflow not flagged")
	}
	rt.plan.overBudget = false
	if !rt.planMispredicted(stripSignals{refetches: 1, fetches: 1, iters: 1}, 10, 50) {
		t.Error("refetch not flagged: the exactly-once contract broke")
	}
	if !rt.planMispredicted(stalled, 50, 50) {
		t.Error("stall-heavy strip with a non-growing proposal not flagged")
	}
	if rt.planMispredicted(stalled, 100, 50) {
		t.Error("stall-heavy strip flagged even though the model proposes to grow past it")
	}
}

func TestPlanProposeBounds(t *testing.T) {
	rt := &RT{Cfg: Default()}
	rt.Cfg.Planned = true
	rt.Cfg.AggLimit = 16
	rt.initCtl()
	rt.plan.rttPrior = 1000

	// An all-reuse strip (no fetches) proposes the widest strip: boundaries
	// are pure overhead when nothing is fetched.
	if got := rt.planPropose(stripSignals{iters: 50}); got != rt.ctl.max {
		t.Fatalf("all-reuse proposal = %d, want max %d", got, rt.ctl.max)
	}

	// Latency bound alone (no touched owners, so no batching bound):
	// busyPerIter = 100, RTT prior 1000 → 2*1000/100+1 = 21 iterations to
	// cover the round trip.
	sig := stripSignals{iters: 10, fetches: 10, elapsed: 1000, stall: 0}
	if got := rt.planPropose(sig); got != 21 {
		t.Fatalf("latency-bound proposal = %d, want 21", got)
	}

	// Batching bound dominates when it asks for more: one owner at one fetch
	// per iteration needs 16·4 = 64 iterations to fill its batch aggFills
	// times, more than the 21 latency wants.
	rt.plan.owners = 1
	if got := rt.planPropose(sig); got != 64 {
		t.Fatalf("batching-bound proposal = %d, want 64", got)
	}

	// Memory bound caps both: 1 KB fetched per iteration against a 4 KB
	// budget headroom allows only 4 iterations.
	rt.ctl.memBudget = 4 << 10
	sig.fetchedBytes = 10 << 10 // 1 KB per iteration
	if got := rt.planPropose(sig); got != 4 {
		t.Fatalf("memory-bound proposal = %d, want 4", got)
	}
}
