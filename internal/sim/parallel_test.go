package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// broadcastWorkload is a message-heavy SPMD program that respects a
// minimum message delay of `delay` cycles: every post arrives at
// Now() + delay + extra with extra >= 0, so it is valid for any parallel
// lookahead <= delay.
func broadcastWorkload(n int, delay Time) func(e *Engine) {
	return func(e *Engine) {
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(func(p *Proc) {
				p.Charge(Compute, Time(13*i+7))
				for j := 0; j < n; j++ {
					if j != i {
						p.Post(j, Message{Arrival: p.Now() + delay + Time(j), Payload: i})
					}
				}
				seen := 0
				for seen < n-1 {
					ms := p.WaitMessage()
					for range ms {
						seen++
						p.Charge(Compute, 3)
					}
				}
			})
		}
	}
}

// snapshot captures the observable per-proc outcome of a run.
func snapshot(e *Engine) []string {
	var out []string
	for _, p := range e.Procs() {
		out = append(out, fmt.Sprintf("clock=%d charges=%v", p.Now(), p.Charges()))
	}
	return out
}

func TestParallelMatchesSequentialBroadcast(t *testing.T) {
	const n = 8
	const delay = 50
	build := broadcastWorkload(n, delay)

	seq := NewEngine()
	build(seq)
	seqMake, _ := seq.Run()

	par := NewParallel(delay, 2)
	build(par)
	parMake, _ := par.Run()

	if seqMake != parMake {
		t.Fatalf("makespan: sequential %d, parallel %d", seqMake, parMake)
	}
	a, b := snapshot(seq), snapshot(par)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("proc %d diverges:\n  seq: %s\n  par: %s", i, a[i], b[i])
		}
	}
}

func TestParallelPingPongMakespan(t *testing.T) {
	const rounds = 100
	const hop = 10
	build := func(e *Engine) {
		e.Spawn(func(p *Proc) {
			p.Post(1, Message{Arrival: p.Now() + hop, Payload: 0})
			for {
				ms := p.WaitMessage()
				v := ms[len(ms)-1].Payload.(int)
				if v >= rounds {
					return
				}
				p.Post(1, Message{Arrival: p.Now() + hop, Payload: v + 1})
			}
		})
		e.Spawn(func(p *Proc) {
			for {
				ms := p.WaitMessage()
				v := ms[len(ms)-1].Payload.(int)
				p.Post(0, Message{Arrival: p.Now() + hop, Payload: v + 1})
				if v+1 >= rounds {
					return
				}
			}
		})
	}
	e := NewParallel(hop, 2)
	build(e)
	got, _ := e.Run()
	if want := Time((rounds + 2) * hop); got != want {
		t.Fatalf("makespan = %d, want %d", got, want)
	}
}

func TestParallelDeterminism(t *testing.T) {
	run := func() []string {
		e := NewParallel(50, 2)
		broadcastWorkload(8, 50)(e)
		e.Run()
		return snapshot(e)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: proc %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestParallelIdleAccounting(t *testing.T) {
	e := NewParallel(10, 2)
	var idle Time
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 1000)
		p.Post(1, Message{Arrival: p.Now() + 10})
	})
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 10)
		p.WaitMessage()
		idle = p.Charges()[Idle]
		if p.Now() != 1010 {
			t.Errorf("receiver clock = %d, want 1010", p.Now())
		}
	})
	e.Run()
	if idle != 1000 {
		t.Fatalf("idle = %d, want 1000", idle)
	}
}

func TestParallelDeadlockTypedError(t *testing.T) {
	e := NewParallel(10, 2)
	e.Spawn(func(p *Proc) { p.WaitMessage() })
	e.Spawn(func(p *Proc) { p.WaitMessage() })
	_, err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestParallelLookaheadViolationPanics(t *testing.T) {
	e := NewParallel(100, 2)
	caught := make(chan any, 1)
	e.Spawn(func(p *Proc) {
		defer func() { caught <- recover() }()
		// Arrival only 1 cycle ahead: violates the 100-cycle lookahead.
		p.Post(1, Message{Arrival: p.Now() + 1})
	})
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 5)
	})
	e.Run()
	r := <-caught
	if r == nil {
		t.Fatal("expected lookahead-violation panic")
	}
	if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
		t.Fatalf("unexpected panic: %v", r)
	}
}

func TestNewParallelRequiresLookahead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero lookahead")
		}
	}()
	NewParallel(0, 0)
}

func TestSimultaneousArrivalsOrderedBySender(t *testing.T) {
	// Two senders with the same arrival time: delivery must order by sender
	// id (then per-sender seq) regardless of which sender executed first.
	build := func(e *Engine) {
		for s := 0; s < 2; s++ {
			s := s
			e.Spawn(func(p *Proc) {
				// Sender 1 runs (and posts) before sender 0 in virtual time.
				p.Charge(Compute, Time(10-5*s))
				for k := 0; k < 3; k++ {
					p.Post(2, Message{Arrival: 1000, Handler: 10*s + k})
				}
			})
		}
		e.Spawn(func(p *Proc) {
			got := p.WaitMessage()
			want := []int{0, 1, 2, 10, 11, 12}
			if len(got) != len(want) {
				t.Errorf("got %d messages, want %d", len(got), len(want))
				return
			}
			for i, m := range got {
				if m.Handler != want[i] {
					t.Errorf("position %d: handler %d, want %d", i, m.Handler, want[i])
				}
			}
		})
	}
	seq := NewEngine()
	build(seq)
	seq.Run()
	par := NewParallel(900, 2)
	build(par)
	par.Run()
}
