package sim

import (
	"fmt"
	"testing"
)

// TestMessagePathZeroAllocs pins the host-performance contract: once a
// process's drain buffer and mailbox ring have been sized by a warm-up
// round, the Charge → Post → Poll cycle allocates nothing. A regression
// here means the message path started allocating per event again (the
// dominant host cost before buffer reuse was introduced).
func TestMessagePathZeroAllocs(t *testing.T) {
	for _, kind := range []EngineKind{Sequential, Parallel} {
		t.Run(kind.String(), func(t *testing.T) {
			var allocs float64
			e := mustEngine(t, kind, 10, Tuning{})
			e.Spawn(func(p *Proc) {
				step := func() {
					p.Charge(Compute, 1)
					p.Post(p.ID(), Message{Arrival: p.Now(), Bytes: 8})
					if ms := p.Poll(); len(ms) != 1 {
						t.Errorf("expected 1 message, got %d", len(ms))
					}
				}
				// Warm up: first rounds size the drain buffer and ring.
				for i := 0; i < 8; i++ {
					step()
				}
				allocs = testing.AllocsPerRun(200, step)
			})
			e.Run()
			if allocs != 0 {
				t.Errorf("%s engine: message path allocates %.1f objects per Charge/Post/Poll cycle, want 0", kind, allocs)
			}
		})
	}
}

// TestChargeZeroAllocs checks the pure clock-advance path separately, with
// the charge hook both unset and set (the hook must not cause boxing).
func TestChargeZeroAllocs(t *testing.T) {
	var bare, hooked float64
	var seen Time
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		bare = testing.AllocsPerRun(200, func() { p.Charge(Compute, 3) })
		p.SetChargeHook(func(cat Category, start, end Time) { seen += end - start })
		hooked = testing.AllocsPerRun(200, func() { p.Charge(MemOv, 2) })
	})
	e.Run()
	if bare != 0 || hooked != 0 {
		t.Errorf("Charge allocates (bare=%.1f hooked=%.1f), want 0", bare, hooked)
	}
	if seen == 0 {
		t.Fatal("charge hook never ran")
	}
}

// TestDrainBufferReuse pins the documented aliasing rule: the slice returned
// by Poll/WaitMessage is the process's reusable drain buffer, overwritten by
// the next drain. Callers that retain messages must copy them out first —
// this test asserts the aliasing actually happens (same backing array) and
// that copying is sufficient to survive it.
func TestDrainBufferReuse(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		post := func(payload int) {
			p.Post(p.ID(), Message{Arrival: p.Now(), Payload: payload})
		}
		post(1)
		first := p.Poll()
		if len(first) != 1 || first[0].Payload.(int) != 1 {
			t.Fatalf("first poll = %+v, want one message with payload 1", first)
		}
		kept := first[0] // the documented way to retain: copy the value out

		post(2)
		second := p.Poll()
		if len(second) != 1 || second[0].Payload.(int) != 2 {
			t.Fatalf("second poll = %+v, want one message with payload 2", second)
		}
		if &first[0] != &second[0] {
			t.Error("drain buffer was not reused across polls; the zero-alloc contract is broken")
		}
		if first[0].Payload.(int) != 2 {
			t.Errorf("retained slice shows payload %v, want it overwritten to 2 (aliasing rule)", first[0].Payload)
		}
		if kept.Payload.(int) != 1 {
			t.Errorf("copied message corrupted: payload = %v, want 1", kept.Payload)
		}
	})
	e.Run()
}

// BenchmarkMailbox measures the two-lane mailbox on its two regimes: the
// sorted-ring fast path (in-order arrival keys) and the overflow heap
// (strictly decreasing keys, the worst case).
func BenchmarkMailbox(b *testing.B) {
	const batch = 64
	b.Run("inorder", func(b *testing.B) {
		var mb mailbox
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				mb.push(Message{Arrival: Time(j), From: 1, seq: uint64(i*batch + j)})
			}
			for j := 0; j < batch; j++ {
				mb.pop()
			}
		}
	})
	b.Run("reversed", func(b *testing.B) {
		var mb mailbox
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				mb.push(Message{Arrival: Time(batch - j), From: 1, seq: uint64(i*batch + j)})
			}
			for j := 0; j < batch; j++ {
				mb.pop()
			}
		}
	})
}

// BenchmarkSchedulerPick measures one sequential scheduling event on the
// indexed wake heap: advance the minimum's wake, fix its position, read the
// new minimum and the horizon (second-best key).
func BenchmarkSchedulerPick(b *testing.B) {
	for _, procs := range []int{8, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			ps := make([]*Proc, procs)
			for i := range ps {
				ps[i] = &Proc{id: i}
			}
			var h schedHeap
			h.init(ps)
			rng := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink Time
			for i := 0; i < b.N; i++ {
				p := h.min()
				rng = rng*6364136223846793005 + 1442695040888963407
				p.wake += Time(rng>>33%97) + 1
				h.fix(p.heapIdx)
				sink += h.secondWake()
			}
			_ = sink
		})
	}
}

// BenchmarkHandoff measures one process switch: 1024 processes at equal
// clocks each charge one cycle and yield in turn, so every Poll hands control
// to another process (one resume and one yield). The parallel engine runs the
// same program with a one-cycle lookahead, every process admitted to every
// window, on one worker and on two.
func BenchmarkHandoff(b *testing.B) {
	const procs = 1024
	engines := []struct {
		name string
		mk   func() Engine
	}{
		{"sequential", func() Engine { return NewEngine() }},
		{"parallel-w1", func() Engine { return NewParallel(1, 1) }},
		{"parallel-w2", func() Engine { return NewParallel(1, 2) }},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			rounds := b.N/procs + 1
			e := eng.mk()
			for i := 0; i < procs; i++ {
				e.Spawn(func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Charge(Compute, 1)
						p.Poll()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(procs*rounds), "ns/switch")
		})
	}
}

// BenchmarkSeqLookahead measures what the lookahead buys the sequential
// engine on the benchmark's shape: 1024 processes in a ring, each charging
// 100 cycles between polls and posting to its successor (one lookahead
// ahead) every sixth poll. With lookahead 0 nearly every poll crosses the
// horizon and switches process; with 550 a process runs about six polls per
// resume.
func BenchmarkSeqLookahead(b *testing.B) {
	const (
		procs     = 1024
		charge    = 100
		pollsPer  = 6
		lookahead = 550
	)
	for _, la := range []Time{0, lookahead} {
		b.Run(fmt.Sprintf("la=%d", la), func(b *testing.B) {
			msgs := b.N/procs + 1
			eng, err := NewEngineWith(Sequential, la, Tuning{})
			if err != nil {
				b.Fatal(err)
			}
			e := eng.(*SeqEngine)
			for i := 0; i < procs; i++ {
				e.Spawn(func(p *Proc) {
					next := (p.ID() + 1) % procs
					for m := 0; m < msgs; m++ {
						for k := 0; k < pollsPer; k++ {
							p.Charge(Compute, charge)
							p.Poll()
						}
						p.Post(next, Message{Arrival: p.Now() + lookahead})
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
			total := float64(procs * msgs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/msg")
			b.ReportMetric(float64(e.Resumes())/total, "resumes/msg")
		})
	}
}

// BenchmarkEpochBarrier measures the parallel engine's window turnover:
// every process charges exactly one window's worth of virtual time and
// polls, so each b.N iteration is one window and one full turnover (fold,
// reduction, admission, barriers). The empty windows time the turnover alone.
// In the busy ones each of 16 processes also does about 1 µs of host work,
// so a window holds about 16 µs, as bh64_static's do. Each shape runs on one
// worker and on two.
func BenchmarkEpochBarrier(b *testing.B) {
	shapes := []struct {
		name        string
		procs, work int // work: multiply-add rounds per process per window
	}{{"empty/procs=4", 4, 0}, {"empty/procs=16", 16, 0}, {"busy/procs=16", 16, 700}}
	for _, s := range shapes {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w=%d", s.name, w), func(b *testing.B) {
				const window = 10
				e := NewParallel(window, w)
				sink := make([]uint64, s.procs)
				for i := 0; i < s.procs; i++ {
					e.Spawn(func(p *Proc) {
						x := uint64(p.ID())
						for n := 0; n < b.N; n++ {
							for k := 0; k < s.work; k++ {
								x = x*6364136223846793005 + 1442695040888963407
							}
							p.Charge(Compute, window)
							p.Poll()
						}
						sink[p.ID()] = x
					})
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.Run()
			})
		}
	}
}
