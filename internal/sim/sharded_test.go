package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// TestWorkerCountsMatchSequential sweeps the parallel engine's worker count
// over the broadcast workload: every configuration must reproduce the
// sequential run bit for bit — worker count and steal timing move host work,
// never virtual-time results. One worker is the sequential loop and opens no
// window; two or more open windows.
func TestWorkerCountsMatchSequential(t *testing.T) {
	const n = 8
	const delay = 50
	build := broadcastWorkload(n, delay)

	seq := NewEngine()
	build(seq)
	seq.Run()
	want := snapshot(seq)

	// 3 makes uneven shards (8 procs over 3 workers); 0 is auto.
	for _, workers := range []int{1, 2, 3, n, 0} {
		par := NewParallel(delay, workers)
		build(par)
		if _, err := par.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := snapshot(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: proc %d diverges:\n  seq: %s\n  par: %s",
					workers, i, want[i], got[i])
			}
		}
		w := par.Workers()
		if workers > 0 && w != workers {
			t.Fatalf("resolved workers = %d, want %d", w, workers)
		}
		if windows := par.Windows(); (w == 1) != (windows == 0) {
			t.Fatalf("workers=%d: %d windows opened", w, windows)
		}
	}
}

// stealWorkload is deliberately shard-imbalanced for W=2 over 8 procs:
// shard 0 (procs 0–3) runs a many-window broadcast ring while shard 1 keeps
// only proc 4 alive on a light self-tick (5–7 exit immediately), so shard
// 1's chain exhausts its run queue first in nearly every window and steals
// from shard 0.
func stealWorkload(rounds int, delay Time) func(e *Engine) {
	return func(e *Engine) {
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(func(p *Proc) {
				for r := 0; r < rounds; r++ {
					for j := 0; j < 4; j++ {
						if j != i {
							p.Post(j, Message{Arrival: p.Now() + delay, Handler: r})
						}
					}
					for seen := 0; seen < 3; {
						seen += len(p.WaitMessage())
					}
					p.Charge(Compute, Time(1+i))
				}
			})
		}
		e.Spawn(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Post(4, Message{Arrival: p.Now() + delay})
				p.WaitMessage()
			}
		})
		for i := 5; i < 8; i++ {
			e.Spawn(func(p *Proc) {})
		}
	}
}

// TestShardedStealing drives the imbalanced workload at two workers and
// checks (a) results are always bit-identical to sequential, and (b) the
// steal path actually runs: across a few attempts the host counters must
// record cross-shard steals, and every stolen proc is accounted by both the
// victim (Stolen) and the thief (Steals).
func TestShardedStealing(t *testing.T) {
	const rounds = 100
	const delay = 20
	build := stealWorkload(rounds, delay)

	seq := NewEngine()
	build(seq)
	seq.Run()
	want := snapshot(seq)

	var steals int64
	for attempt := 0; attempt < 5; attempt++ {
		par := NewParallel(delay, 2)
		build(par)
		if _, err := par.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshot(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attempt %d: proc %d diverges:\n  seq: %s\n  par: %s", attempt, i, want[i], got[i])
			}
		}
		ws := par.WorkerStats()
		if len(ws) != 2 {
			t.Fatalf("WorkerStats has %d shards, want 2", len(ws))
		}
		var stolen, took, procs int64
		for _, w := range ws {
			stolen += w.Stolen
			took += w.Steals
			procs += int64(w.Procs)
		}
		if stolen != took {
			t.Fatalf("victim/thief accounting diverges: %d stolen, %d steals", stolen, took)
		}
		if procs != 8 {
			t.Fatalf("shards own %d procs, want 8", procs)
		}
		steals += took
		if steals > 0 {
			return
		}
	}
	t.Errorf("no cross-shard steals in 5 imbalanced runs; steal path looks dead")
}

// TestCrossWorkerMessagePathZeroAllocs pins the cross-worker host contract:
// once mailbox rings, drain buffers, and the per-shard parked/lowered/run
// queues are warm, a full cross-shard round trip — post, decrease-key note,
// window turnover, chain hand-off, reply — allocates nothing. The two procs
// land on different shards (two procs, two workers), so every message
// crosses workers and every round trip is a window turnover.
func TestCrossWorkerMessagePathZeroAllocs(t *testing.T) {
	const look = 10
	const stop = -1
	e := NewParallel(look, 2)
	var allocs float64
	e.Spawn(func(p *Proc) {
		step := func() {
			p.Post(1, Message{Arrival: p.Now() + look, Handler: 1, Bytes: 8})
			p.WaitMessage()
		}
		// Warm up: size the buffers and queues.
		for i := 0; i < 8; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(100, step)
		p.Post(1, Message{Arrival: p.Now() + look, Handler: stop})
	})
	e.Spawn(func(p *Proc) {
		for {
			for _, m := range p.WaitMessage() {
				if m.Handler == stop {
					return
				}
				p.Post(0, Message{Arrival: p.Now() + look, Handler: 2, Bytes: 8})
			}
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("cross-worker round trip allocates %.1f objects, want 0", allocs)
	}
}

// TestShardArenaWindowTurnoverZeroAllocs pins the shard-arena contract: with
// multiple processes per shard, the full window machinery — parked fold, heap
// push/pop, run-queue refill, seed selection, chain hand-off — runs out of
// the slabs arenaShards carved at Run and allocates nothing in steady state.
// Unlike the two-proc cross-worker test above, every shard here owns two
// processes, so the per-shard queues actually cycle through non-trivial
// lengths each window, and the mailbox rings live in the per-shard message
// slab rather than per-process append-grown arrays.
func TestShardArenaWindowTurnoverZeroAllocs(t *testing.T) {
	const look = 10
	const stop = -1
	const pairs = 4 // 8 procs over 4 workers: 2 per shard
	e := NewParallel(look, pairs)
	var allocs float64
	for i := 0; i < pairs; i++ {
		i := i
		echo := pairs + i // procs 0..3 ping, 4..7 echo; partners sit on different shards
		e.Spawn(func(p *Proc) {
			step := func() {
				p.Post(echo, Message{Arrival: p.Now() + look, Handler: 1, Bytes: 8})
				p.WaitMessage()
			}
			for r := 0; r < 8; r++ {
				step() // warm the drain buffers and any overflow paths
			}
			if i == 0 {
				allocs = testing.AllocsPerRun(100, step)
			} else {
				for r := 0; r < 150; r++ { // keep every shard busy past the measurement
					step()
				}
			}
			p.Post(echo, Message{Arrival: p.Now() + look, Handler: stop})
		})
	}
	for i := 0; i < pairs; i++ {
		e.Spawn(func(p *Proc) {
			for {
				for _, m := range p.WaitMessage() {
					if m.Handler == stop {
						return
					}
					p.Post(m.From, Message{Arrival: p.Now() + look, Handler: 2, Bytes: 8})
				}
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("window turnover allocates %.1f objects per round in steady state, want 0", allocs)
	}
}

// TestShardArenaDeadMailboxZeroAllocs extends the window-turnover contract to
// the crash path: one echo process exits mid-run (from the engine's point of
// view, exactly what a crashed machine node looks like), while its partner
// keeps posting into the dead mailbox — the shape of a reliability layer
// retransmitting to a dead peer. The surviving pairs' round trips must still
// allocate nothing in steady state: a mailbox that only fills and never
// drains must not perturb the live message path.
func TestShardArenaDeadMailboxZeroAllocs(t *testing.T) {
	const look = 10
	const stop = -1
	const pairs = 4 // 8 procs over 4 workers: 2 per shard, as in the base test
	e := NewParallel(look, pairs)
	var allocs float64
	for i := 0; i < pairs; i++ {
		i := i
		echo := pairs + i
		e.Spawn(func(p *Proc) {
			step := func() {
				p.Post(echo, Message{Arrival: p.Now() + look, Handler: 1, Bytes: 8})
				p.WaitMessage()
			}
			for r := 0; r < 8; r++ {
				step() // warm the drain buffers and any overflow paths
			}
			if i == 1 {
				// Kill this pair's echo, then fire-and-forget into its dead
				// mailbox for the rest of the run.
				p.Post(echo, Message{Arrival: p.Now() + look, Handler: stop})
				for r := 0; r < 150; r++ {
					p.Post(echo, Message{Arrival: p.Now() + look, Handler: 2, Bytes: 8})
					p.Charge(Compute, look)
					p.Poll()
				}
				return
			}
			if i == 0 {
				allocs = testing.AllocsPerRun(100, step)
			} else {
				for r := 0; r < 150; r++ { // keep every shard busy past the measurement
					step()
				}
			}
			p.Post(echo, Message{Arrival: p.Now() + look, Handler: stop})
		})
	}
	for i := 0; i < pairs; i++ {
		e.Spawn(func(p *Proc) {
			for {
				for _, m := range p.WaitMessage() {
					if m.Handler == stop {
						return
					}
					p.Post(m.From, Message{Arrival: p.Now() + look, Handler: 2, Bytes: 8})
				}
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("live-pair round trip allocates %.1f objects with a dead mailbox in the machine, want 0", allocs)
	}
}

// TestTuningValidate covers the typed rejection of bad engine tuning.
func TestTuningValidate(t *testing.T) {
	cases := []struct {
		name  string
		t     Tuning
		procs int
		bad   bool
	}{
		{"zero is valid", Tuning{}, 8, false},
		{"explicit in range", Tuning{Workers: 4}, 8, false},
		{"negative workers", Tuning{Workers: -1}, 8, true},
		{"workers exceed procs", Tuning{Workers: 9}, 8, true},
		{"workers unchecked without procs", Tuning{Workers: 9}, 0, false},
	}
	for _, c := range cases {
		err := c.t.Validate(c.procs)
		if c.bad && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
		if !c.bad && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if err != nil {
			if !errors.Is(err, ErrBadTuning) {
				t.Errorf("%s: %v does not wrap ErrBadTuning", c.name, err)
			}
			var te *TuningError
			if !errors.As(err, &te) || te.Field == "" {
				t.Errorf("%s: %v is not a field-naming *TuningError", c.name, err)
			}
		}
	}
}

// TestNewEngineWith covers the error-returning tuned constructor: the
// parallel engine's windows are the machine lookahead, which must be
// positive.
func TestNewEngineWith(t *testing.T) {
	if e, err := NewEngineWith(Sequential, -5, Tuning{Workers: 3}); err != nil {
		t.Fatal(err)
	} else if e.kind != Sequential || e.lookahead != 0 {
		t.Fatalf("sequential kind: kind %v, lookahead %d; want sequential and 0", e.kind, e.lookahead)
	}

	pe, err := NewEngineWith(Parallel, 550, Tuning{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pe.kind != Parallel || pe.lookahead != 550 || pe.tuning.Workers != 2 {
		t.Fatalf("kind %v, lookahead %d, workers %d: want parallel, 550 and 2", pe.kind, pe.lookahead, pe.tuning.Workers)
	}
	if Sequential.String() != "sequential" || Parallel.String() != "parallel" {
		t.Fatal("EngineKind.String")
	}

	if _, err := NewEngineWith(Parallel, 0, Tuning{}); !errors.Is(err, ErrBadTuning) {
		t.Fatalf("non-positive lookahead: err = %v, want ErrBadTuning", err)
	}
	if _, err := NewEngineWith(Parallel, 10, Tuning{Workers: -3}); !errors.Is(err, ErrBadTuning) {
		t.Fatalf("negative workers: err = %v, want ErrBadTuning", err)
	}
}

// TestRunRejectsWorkersBeyondProcs pins the Run-time recheck of the
// workers-vs-procs bound (the proc count is only known at Run).
func TestRunRejectsWorkersBeyondProcs(t *testing.T) {
	e := NewParallel(10, 5)
	for i := 0; i < 2; i++ {
		e.Spawn(func(p *Proc) {})
	}
	_, err := e.Run()
	if !errors.Is(err, ErrBadTuning) {
		t.Fatalf("err = %v, want ErrBadTuning", err)
	}
	var te *TuningError
	if !errors.As(err, &te) || te.Field != "workers" {
		t.Fatalf("err = %v, want a workers *TuningError", err)
	}
}

// staleKeyWorkload reproduces the decrease-key/push interleaving that broke
// the per-note up() sift repair (see parShard.fold). Servers sit blocked at
// Forever deep in the shard heaps; posters lower their keys with arrivals
// that often land beyond the next frontier, so the lowered keys linger in
// the heap as stale entries; tickers park ready at staggered clocks in the
// same windows, so the fold pushes fresh keys that can legitimately stop
// beneath a stale one. With the broken repair, the sift that lifted the
// stale key away dropped a Forever parent onto such a fresh key, burying a
// runnable process — which surfaced as idle-accounting divergence or a
// spurious deadlock.
func staleKeyWorkload(rounds int, delay Time) func(e *Engine) {
	const servers = 6
	const posters = 3
	perServer := rounds * posters / servers
	return func(e *Engine) {
		for i := 0; i < servers; i++ {
			e.Spawn(func(p *Proc) { // blocked at Forever between bursts
				for got := 0; got < perServer; {
					got += len(p.WaitMessage())
				}
			})
		}
		for i := 0; i < posters; i++ {
			i := i
			e.Spawn(func(p *Proc) {
				for r := 0; r < rounds; r++ {
					// Heavy, uneven compute: the poster parks ready at wakes
					// far beyond the frontier, so its fold push can stop
					// beneath a lingering stale key. If the broken repair then
					// buries it under a Forever parent, its late admission
					// posts from a catch-up clock behind the frontier — a loud
					// lookahead-violation panic.
					p.Charge(Compute, Time(11+(i*31+r*17)%83))
					p.Poll()
					// Arrivals overshoot the lookahead by a varying margin, so
					// the lowered key often stays in the heap past the next
					// turnover — a lingering stale entry.
					at := p.Now() + delay + Time((i*7+r*11)%29)
					p.Post((r+i)%servers, Message{Arrival: at, Handler: r})
				}
			})
		}
		for i := 0; i < 7; i++ {
			i := i
			e.Spawn(func(p *Proc) { // tickers: park ready at staggered clocks
				for r := 0; r < rounds*2; r++ {
					p.Charge(Compute, Time(1+(i*7+r*13)%17))
					p.Poll()
				}
			})
		}
	}
}

// TestLoweredKeyRepair pins the stale-heap-key repair across worker counts:
// every configuration must match the sequential run bit for bit.
func TestLoweredKeyRepair(t *testing.T) {
	const rounds = 300
	const delay = 10
	build := staleKeyWorkload(rounds, delay)

	seq := NewEngine()
	build(seq)
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(seq)

	for _, w := range []int{1, 2, 3, 16} {
		par := NewParallel(delay, w)
		build(par)
		if _, err := par.Run(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := snapshot(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: proc %d diverges:\n  seq: %s\n  par: %s", w, i, want[i], got[i])
			}
		}
	}
}

// tokenRing passes tokens around n processes in lockstep, each for hops
// hops, starting at evenly spaced processes: a holder charges a little and
// posts its token one lookahead ahead to its successor, and the processes
// without a token are blocked, so each window holds one event per token and
// each hop is a turnover. Each process logs what it receives into logs[id]
// and returns once every token has passed it as often as it will.
func tokenRing(n, tokens, hops int, look Time, logs [][]int64) func(e *Engine) {
	visits := make([]int, n)
	for t := 0; t < tokens; t++ {
		for h := 1; h <= hops; h++ {
			visits[(t*n/tokens+h)%n]++
		}
	}
	return func(e *Engine) {
		for i := 0; i < n; i++ {
			e.Spawn(func(p *Proc) {
				next := (p.ID() + 1) % n
				for t := 0; t < tokens; t++ {
					if t*n/tokens == p.ID() {
						p.Post(next, Message{Arrival: p.Now() + look, Handler: 1})
					}
				}
				for seen := 0; seen < visits[p.ID()]; {
					for _, m := range p.WaitMessage() {
						logs[p.ID()] = append(logs[p.ID()], int64(p.Now()), int64(m.From), int64(m.seq), int64(m.Arrival))
						seen++
						p.Charge(Compute, Time(1+m.Handler%3))
						if m.Handler < hops {
							p.Post(next, Message{Arrival: p.Now() + look, Handler: m.Handler + 1})
						}
					}
				}
			})
		}
	}
}

// TestWindowBarrierStress drives thousands of one-event windows through the
// window barriers at W = 2, 3 and 4 on one thread and on two: on one every barrier wait parks on its shard's channel, on two
// (with at least two CPUs) W = 2 waits in the spin. Three tokens in lockstep
// make the workers reach each barrier together, the race between a release
// and the next barrier's sleepers. Every run must log what the sequential
// engine logs, end in the same state, and capture the same mid-run snapshot.
func TestWindowBarrierStress(t *testing.T) {
	const n, hops, look = 8, 2000, 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type result struct {
		logs  [][]int64
		snap  []byte
		final []string
	}
	run := func(e *Engine, tokens int) result {
		r := result{logs: make([][]int64, n)}
		tokenRing(n, tokens, hops, look, r.logs)(e)
		e.CheckpointAt(hops/2*look, func() {
			var w SnapWriter
			EncodeProcs(&w, e.Procs())
			r.snap = w.Bytes()
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		r.final = snapshot(e)
		return r
	}
	for _, tokens := range []int{1, 3} {
		want := run(mustEngine(t, Sequential, look, Tuning{}), tokens)
		if want.snap == nil {
			t.Fatal("the checkpoint never fired")
		}
		for _, threads := range []int{1, 2} {
			runtime.GOMAXPROCS(threads)
			for _, w := range []int{2, 3, 4} {
				what := fmt.Sprintf("tokens=%d GOMAXPROCS=%d workers=%d", tokens, threads, w)
				par := NewParallel(look, w)
				got := run(par, tokens)
				for id := range want.logs {
					if !slices.Equal(got.logs[id], want.logs[id]) {
						t.Fatalf("%s: process %d logged\n%v\nsequential\n%v", what, id, got.logs[id], want.logs[id])
					}
				}
				if !slices.Equal(got.final, want.final) {
					t.Fatalf("%s: final state\n%v\nsequential\n%v", what, got.final, want.final)
				}
				if !bytes.Equal(got.snap, want.snap) {
					t.Fatalf("%s: mid-run snapshot differs from the sequential engine's", what)
				}
				if par.Windows() < hops {
					t.Fatalf("%s: %d windows, want at least %d", what, par.Windows(), hops)
				}
				var parks int64
				for _, ws := range par.WorkerStats() {
					parks += ws.Parks
				}
				if threads == 1 && parks == 0 {
					t.Fatalf("%s: no barrier wait parked", what)
				}
			}
		}
	}
}
