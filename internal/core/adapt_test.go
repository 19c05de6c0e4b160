package core

import (
	"testing"

	"dpa/internal/gptr"
)

// adaptiveCfg returns a small-strip adaptive configuration.
func adaptiveCfg(strip int) Config {
	cfg := Default()
	cfg.Strip = strip
	cfg.Adaptive = true
	return cfg
}

func TestAdaptiveForAllRunsEveryIteration(t *testing.T) {
	w := newWorld(4)
	const n = 200
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(i%4, obj{id: i}))
	}
	seen := make([]bool, n)
	w.run(adaptiveCfg(10), func(rt *RT) {
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

func TestAdaptiveStripGrowsUnderPressure(t *testing.T) {
	// Many small remote objects with a tiny initial strip: every strip is
	// dominated by fetch stall and under-filled batches, so the controller
	// must grow the strip well past its starting point.
	w := newWorld(4)
	const n = 400
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%3, obj{id: i}))
	}
	st, _ := w.run(adaptiveCfg(10), func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) {})
		})
	})
	if st.StripGrows == 0 {
		t.Fatalf("controller never grew the strip: %+v", st)
	}
	if st.FinalStrip <= 10 {
		t.Fatalf("final strip %d did not grow past the initial 10", st.FinalStrip)
	}
}

func TestAdaptiveStripShrinksOverMemBudget(t *testing.T) {
	// Each remote object is 4 KB and the budget is 16 KB, so any strip
	// admitting more than four remote fetches overflows the per-strip budget
	// and must shrink.
	w := newWorld(2)
	const n = 256
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i, size: 4096}))
	}
	cfg := adaptiveCfg(64)
	cfg.MemBudget = 16 << 10
	st, _ := w.run(cfg, func(rt *RT) {
		rt.ForAll(n, func(i int) {
			rt.Spawn(ptrs[i], func(o gptr.Object) {})
		})
	})
	if st.StripShrinks == 0 {
		t.Fatalf("controller never shrank the strip under memory pressure: %+v", st)
	}
}

func TestAdaptiveRetentionEliminatesRefetches(t *testing.T) {
	// The same pointers are spawned in two consecutive strips. Static mode
	// drops copies at the strip boundary and refetches; adaptive mode retains
	// them under the budget and reuses.
	w := newWorld(2)
	const n = 32
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	body := func(rt *RT) {
		rt.ForAll(2*n, func(i int) {
			rt.Spawn(ptrs[i%n], func(o gptr.Object) {})
		})
	}

	staticCfg := Default()
	staticCfg.Strip = n
	stStatic, _ := w.run(staticCfg, body)
	if stStatic.Refetches == 0 {
		t.Fatalf("static strip boundary caused no refetches: %+v", stStatic)
	}

	stAdaptive, _ := w.run(adaptiveCfg(n), body)
	if stAdaptive.Refetches != 0 {
		t.Fatalf("adaptive retention still refetched %d times", stAdaptive.Refetches)
	}
	if stAdaptive.Fetches >= stStatic.Fetches {
		t.Fatalf("adaptive fetched %d, static %d — retention saved nothing",
			stAdaptive.Fetches, stStatic.Fetches)
	}
}

func TestOwnerMajorGroupsByOwner(t *testing.T) {
	// Interleaved spawns on two remote owners: owner-major scheduling must
	// run each owner's threads as one contiguous group.
	w := newWorld(3)
	const per = 8
	var ptrs []gptr.Ptr
	for i := 0; i < 2*per; i++ {
		ptrs = append(ptrs, w.space.Alloc(1+i%2, obj{id: 1 + i%2}))
	}
	var order []int
	w.run(adaptiveCfg(0), func(rt *RT) {
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

func TestValidateRejectsBadAdaptiveConfigs(t *testing.T) {
	bad := []Config{
		func() Config { c := Default(); c.Strip = -1; return c }(),
		func() Config { c := adaptiveCfg(50); c.LIFO = true; return c }(),
		func() Config { c := adaptiveCfg(50); c.StripMin = 100; c.StripMax = 10; return c }(),
		func() Config { c := adaptiveCfg(50); c.StripMin = -1; return c }(),
		func() Config { c := adaptiveCfg(50); c.MemBudget = -1; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: Validate accepted %+v", i, cfg)
		}
	}
	good := adaptiveCfg(0) // Strip 0 = one strip: explicitly valid
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected Strip=0 adaptive config: %v", err)
	}
}

func TestDestLimitClamps(t *testing.T) {
	rt := &RT{adaptive: true}
	rt.Cfg = Default()
	rt.Cfg.AggLimit = 16
	d := rt.dests.touch(1)

	// Cold estimates fall back to the configured base.
	if got := rt.destLimit(d); got != 16 {
		t.Fatalf("cold destLimit = %d, want base 16", got)
	}
	// A huge RTT against a tiny gap clamps at 8x base.
	d.rttEwma = 1 << 20
	rt.gapEwma = 1
	if got := rt.destLimit(d); got != 128 {
		t.Fatalf("high-RTT destLimit = %d, want 128", got)
	}
	// A tiny RTT against a huge gap clamps at base/2.
	d.rttEwma = 1
	rt.gapEwma = 1 << 20
	if got := rt.destLimit(d); got != 8 {
		t.Fatalf("low-RTT destLimit = %d, want 8", got)
	}
}
