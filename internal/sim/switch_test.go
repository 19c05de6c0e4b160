package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dpa/internal/leakguard"
)

var engineKinds = []EngineKind{Sequential, Parallel}

// mustEngine is NewEngineWith for tunings known to be valid.
func mustEngine(t *testing.T, kind EngineKind, lookahead Time, tn Tuning) *Engine {
	t.Helper()
	e, err := NewEngineWith(kind, lookahead, tn)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runPanics runs e and returns the value Run panicked with (nil if it
// returned).
func runPanics(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestBodyPanicReachesRunCaller pins the panic contract: a process body's
// panic comes out of Run, on the caller's goroutine, with the original value
// — while the other processes of the run are mid-flight, and with no worker
// goroutine left behind.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	type boom struct{ id int }
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := mustEngine(t, kind, 10, Tuning{Workers: 2})
			for i := 0; i < 4; i++ {
				e.Spawn(func(p *Proc) {
					for r := 0; ; r++ {
						p.Charge(Compute, 10)
						p.Poll()
						if p.ID() == 2 && r == 5 {
							panic(boom{p.ID()})
						}
					}
				})
			}
			if r := runPanics(e); r != (boom{2}) {
				t.Fatalf("Run panicked with %v, want %v", r, boom{2})
			}
			// The three processes that never finished stay parked.
			waitGoroutines(t, base+3)
		})
	}
}

// TestLookaheadViolationReachesRunCaller is the engine's own contract-check
// panic taking the same road (TestParallelLookaheadViolationPanics recovers
// it inside the body). The lookahead is a promise about the caller's posts
// under either kind of engine; only an engine built without one (NewEngine)
// takes any arrival at or after the sender's clock.
func TestLookaheadViolationReachesRunCaller(t *testing.T) {
	short := func(e *Engine) {
		e.Spawn(func(p *Proc) { p.Post(1, Message{Arrival: p.Now() + 1}) })
		e.Spawn(func(p *Proc) { p.Charge(Compute, 5) })
	}
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := mustEngine(t, kind, 100, Tuning{})
			short(e)
			r := runPanics(e)
			if r == nil || !strings.Contains(fmt.Sprint(r), "lookahead violation") {
				t.Fatalf("Run panicked with %v, want the lookahead violation", r)
			}
		})
	}
	e := NewEngine()
	short(e)
	if r := runPanics(e); r != nil {
		t.Fatalf("lookahead-0 engine panicked with %v on a 1-cycle post", r)
	}
}

// waitGoroutines waits for the goroutine count to come down to want: a
// goroutine that has signalled its exit may still be counted for a moment
// (which is also why a count below want, from a baseline read in such a
// moment, is not a failure).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	if got := leakguard.Settle(want); got > want {
		t.Fatalf("%d goroutines, want %d", got, want)
	}
}

// TestRunLeavesNoGoroutines pins the engines' goroutine lifetime: however Run
// ends — all done, deadlocked, a body panic, the engine's own lookahead
// check — no scheduler or worker goroutine survives it and Close, at any
// worker count; only the coroutines of processes that never finished stay
// parked.
func TestRunLeavesNoGoroutines(t *testing.T) {
	ends := []struct {
		name   string
		build  func(e *Engine)
		parked int                                  // processes left unfinished
		check  func(t *testing.T, err error, r any) // what Run returned, or panicked with
	}{
		{"done", broadcastWorkload(8, 50), 0, func(t *testing.T, err error, r any) {
			if err != nil || r != nil {
				t.Fatalf("Run: err %v, panic %v", err, r)
			}
		}},
		{"deadlock", func(e *Engine) {
			for i := 0; i < 3; i++ {
				e.Spawn(func(p *Proc) { p.WaitMessage() })
			}
			e.Spawn(func(p *Proc) { p.Charge(Compute, 7) })
		}, 3, func(t *testing.T, err error, r any) {
			if !errors.Is(err, ErrDeadlock) || r != nil {
				t.Fatalf("Run: err %v, panic %v; want ErrDeadlock", err, r)
			}
		}},
		{"panic", func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn(func(p *Proc) {
					for r := 0; ; r++ {
						p.Charge(Compute, 10)
						p.Poll()
						if p.ID() == 2 && r == 5 {
							panic("boom")
						}
					}
				})
			}
		}, 3, func(t *testing.T, err error, r any) {
			if r != "boom" {
				t.Fatalf("Run panicked with %v, want boom", r)
			}
		}},
		{"lookahead", func(e *Engine) { // the violator runs last under either engine
			for i := 0; i < 3; i++ {
				e.Spawn(func(p *Proc) { p.Charge(Compute, 5) })
			}
			e.Spawn(func(p *Proc) { p.Post(0, Message{Arrival: p.Now() + 1}) })
		}, 0, func(t *testing.T, err error, r any) {
			if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
				t.Fatalf("Run panicked with %v, want the lookahead violation", r)
			}
		}},
	}
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, w := range []int{2, 4} {
				for _, end := range ends {
					t.Run(fmt.Sprintf("w=%d/%s", w, end.name), func(t *testing.T) {
						base := runtime.NumGoroutine()
						e := mustEngine(t, kind, 50, Tuning{Workers: w})
						end.build(e)
						var err error
						r := func() (r any) {
							defer func() { r = recover() }()
							_, err = e.Run()
							return nil
						}()
						end.check(t, err, r)
						e.Close()
						waitGoroutines(t, base+end.parked)
					})
				}
			}
		})
	}
}

// TestProcessMigratesAcrossWorkers pins that a process coroutine may be
// resumed by different worker goroutines over a run. Four processes over four
// workers put exactly one process in each shard, so a shard that records both
// a home resume and a theft had its process resumed by its own worker and by
// another one. The load is skewed (process 0 ticks every window, process 3
// every fourth) and every step crosses shards; the outcome must equal the
// sequential engine's.
func TestProcessMigratesAcrossWorkers(t *testing.T) {
	const n = 4
	const delay = 10
	build := func(e *Engine) {
		for i := 0; i < n; i++ {
			e.Spawn(func(p *Proc) {
				for r := 0; r < 400/(1+p.ID()); r++ {
					p.Charge(Compute, Time(delay*(1+p.ID())))
					p.Post((p.ID()+1)%n, Message{Arrival: p.Now() + delay, Handler: r})
					p.Poll()
				}
			})
		}
	}
	seq := NewEngine()
	build(seq)
	seq.Run()
	want := snapshot(seq)

	for attempt := 0; attempt < 5; attempt++ {
		par := NewParallel(delay, n)
		build(par)
		if _, err := par.Run(); err != nil {
			t.Fatal(err)
		}
		for i, got := range snapshot(par) {
			if got != want[i] {
				t.Fatalf("attempt %d: proc %d diverges:\n  seq: %s\n  par: %s", attempt, i, want[i], got)
			}
		}
		for _, w := range par.WorkerStats() {
			if w.Procs != 1 {
				t.Fatalf("shard %d owns %d procs, want 1", w.Worker, w.Procs)
			}
			if w.Resumes > 0 && w.Stolen > 0 {
				return
			}
		}
	}
	t.Error("no process was resumed by two different workers in 5 runs")
}

// TestSeedBuffersFirstMessagesZeroAllocs pins the slab seed: the first
// bufSeed messages through a fresh process's mailbox ring and the first
// batchSeed through its overflow heap and drain buffer allocate nothing.
// Process 0 drives one fresh target per AllocsPerRun call (the warm-up call
// gets a target of its own, so the measured call really sees first
// messages); under the sequential engine the target's side of the exchange
// runs inside the measured call too.
func TestSeedBuffersFirstMessagesZeroAllocs(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn(func(p *Proc) {
		target := 0
		allocs = testing.AllocsPerRun(1, func() {
			target++
			base := p.Now() + 100
			for i := 0; i < bufSeed; i++ { // equal arrivals: ring lane, drained as one batch
				p.Post(target, Message{Arrival: base})
			}
			for i := 0; i < batchSeed; i++ { // earlier arrivals: overflow lane, drained first as one batch
				p.Post(target, Message{Arrival: base - 1})
			}
			p.WaitMessage() // the target's acknowledgement
		})
	})
	for i := 0; i < 2; i++ {
		e.Spawn(func(p *Proc) {
			for got := 0; got < bufSeed+batchSeed; {
				got += len(p.WaitMessage())
			}
			p.Post(0, Message{Arrival: p.Now()})
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("first %d ring and %d overflow messages allocate %.0f objects, want 0", bufSeed, batchSeed, allocs)
	}
}

// TestSeedBuffersKeepPrePostedMessages pins the carve rule under the
// sequential engine: a mailbox filled before Run (more messages than a slab
// segment holds, in both lanes) keeps them, and they are delivered in
// (arrival, sender, seq) order.
func TestSeedBuffersKeepPrePostedMessages(t *testing.T) {
	const n = 3 * bufSeed
	e := NewEngine()
	src := e.Spawn(func(p *Proc) {})
	var got []int
	e.Spawn(func(p *Proc) {
		for len(got) < n {
			for _, m := range p.WaitMessage() {
				got = append(got, m.Handler)
			}
		}
	})
	// Handler k arrives at 1000+k: post the even ones ascending (ring lane),
	// then the odd ones descending (overflow lane).
	for k := 0; k < n; k += 2 {
		src.Post(1, Message{Arrival: Time(1000 + k), Handler: k})
	}
	for k := n - 1; k > 0; k -= 2 {
		src.Post(1, Message{Arrival: Time(1000 + k), Handler: k})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for k, h := range got {
		if h != k {
			t.Fatalf("delivery order %v: position %d holds %d", got, k, h)
		}
	}
}

// TestCoroutineServesEveryRun pins a process's coroutine lifetime: it is
// made on the first Spawn, serves every later run of the process after
// Reset, and returns at Close. No run adds a goroutine, Close takes every
// one back, and an engine closed and reset still runs, on new coroutines,
// to the same result.
func TestCoroutineServesEveryRun(t *testing.T) {
	const procs = 8
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := mustEngine(t, kind, 50, Tuning{Workers: 2})
			var want []string
			for round := 0; round < 4; round++ {
				if round > 0 {
					e.Reset()
				}
				if round == 3 {
					e.Close() // between Reset and Spawn: the last run's processes
					waitGoroutines(t, base)
				}
				broadcastWorkload(procs, 50)(e)
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				got := snapshot(e)
				if round == 0 {
					want = got
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("round %d: %v, want %v", round, got, want)
				}
				waitGoroutines(t, base+procs)
			}
			e.Close()
			waitGoroutines(t, base)
			e.Close() // a second Close has nothing left to stop
		})
	}
}
