package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSingleProcCharges(t *testing.T) {
	e := NewEngine()
	var final Time
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 100)
		p.Charge(SendOv, 7)
		final = p.Now()
	})
	makespan, _ := e.Run()
	if final != 107 {
		t.Fatalf("final clock = %d, want 107", final)
	}
	if makespan != 107 {
		t.Fatalf("makespan = %d, want 107", makespan)
	}
}

func TestChargeCategories(t *testing.T) {
	e := NewEngine()
	p0 := e.Spawn(func(p *Proc) {
		p.Charge(Compute, 10)
		p.Charge(Compute, 20)
		p.Charge(HashOv, 5)
	})
	e.Run()
	ch := p0.Charges()
	if ch[Compute] != 30 || ch[HashOv] != 5 || ch[Idle] != 0 {
		t.Fatalf("charges = %v", ch)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative charge")
			}
			// Re-panic is swallowed; just exit the proc normally.
		}()
		p.Charge(Compute, -1)
	})
	e.Run()
}

func TestMessageDelivery(t *testing.T) {
	e := NewEngine()
	var got []Message
	e.Spawn(func(p *Proc) { // sender
		p.Charge(Compute, 50)
		p.Post(1, Message{Arrival: p.Now() + 100, Handler: 42, Payload: "hi", Bytes: 2})
	})
	e.Spawn(func(p *Proc) { // receiver
		got = p.WaitMessage()
	})
	e.Run()
	if len(got) != 1 {
		t.Fatalf("got %d messages, want 1", len(got))
	}
	m := got[0]
	if m.Handler != 42 || m.From != 0 || m.Payload.(string) != "hi" || m.Arrival != 150 {
		t.Fatalf("bad message %+v", m)
	}
}

func TestWaitAccountsIdle(t *testing.T) {
	e := NewEngine()
	var idle Time
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 1000)
		p.Post(1, Message{Arrival: p.Now()})
	})
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 10)
		p.WaitMessage()
		idle = p.Charges()[Idle]
		if p.Now() != 1000 {
			t.Errorf("receiver clock = %d, want 1000", p.Now())
		}
	})
	e.Run()
	if idle != 990 {
		t.Fatalf("idle = %d, want 990", idle)
	}
}

func TestPollReturnsOnlyArrived(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		p.Post(1, Message{Arrival: 100, Handler: 1})
		p.Post(1, Message{Arrival: 300, Handler: 2})
	})
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 150)
		got := p.Poll()
		if len(got) != 1 || got[0].Handler != 1 {
			t.Errorf("poll at 150: got %v", got)
		}
		p.Charge(Compute, 200)
		got = p.Poll()
		if len(got) != 1 || got[0].Handler != 2 {
			t.Errorf("poll at 350: got %v", got)
		}
	})
	e.Run()
}

func TestArrivalOrdering(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		// Post out of arrival order.
		p.Post(1, Message{Arrival: 300, Handler: 3})
		p.Post(1, Message{Arrival: 100, Handler: 1})
		p.Post(1, Message{Arrival: 200, Handler: 2})
	})
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 1000)
		got := p.Poll()
		if len(got) != 3 {
			t.Fatalf("got %d messages", len(got))
		}
		for i, m := range got {
			if m.Handler != i+1 {
				t.Errorf("position %d: handler %d", i, m.Handler)
			}
		}
	})
	e.Run()
}

func TestSimultaneousArrivalsOrderedBySendSeq(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Post(1, Message{Arrival: 500, Handler: i})
		}
	})
	e.Spawn(func(p *Proc) {
		got := p.WaitMessage()
		if len(got) != 10 {
			t.Fatalf("got %d messages", len(got))
		}
		for i, m := range got {
			if m.Handler != i {
				t.Errorf("position %d: handler %d, want %d (send order)", i, m.Handler, i)
			}
		}
	})
	e.Run()
}

func TestPingPong(t *testing.T) {
	// Two processes exchange a counter; clocks must interleave correctly.
	const rounds = 100
	const hop = 10
	e := NewEngine()
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
	makespan, _ := e.Run()
	// Payload k arrives at (k+1)*hop. proc1 stops after forwarding rounds+1,
	// which proc0 receives at (rounds+2)*hop.
	want := Time((rounds + 2) * hop)
	if makespan != want {
		t.Fatalf("makespan = %d, want %d", makespan, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		const n = 8
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(func(p *Proc) {
				// Each proc does staggered work and broadcasts.
				p.Charge(Compute, Time(13*i+7))
				for j := 0; j < n; j++ {
					if j != i {
						p.Post(j, Message{Arrival: p.Now() + Time(5+j), Payload: i})
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
		e.Run()
		var out []Time
		for _, p := range e.Procs() {
			out = append(out, p.Now())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1[%d]=%d run2[%d]=%d", i, a[i], i, b[i])
		}
	}
}

func TestDeadlockReturnsTypedError(t *testing.T) {
	for _, kind := range []EngineKind{Sequential, Parallel} {
		e := mustEngine(t, kind, 10, Tuning{})
		e.Spawn(func(p *Proc) { p.WaitMessage() })
		e.Spawn(func(p *Proc) { p.WaitMessage() })
		_, err := e.Run()
		if err == nil {
			t.Fatalf("%v: expected deadlock error", kind)
		}
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%v: error %v is not ErrDeadlock", kind, err)
		}
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%v: error %v is not *DeadlockError", kind, err)
		}
	}
}

func TestCausality(t *testing.T) {
	// A process that races far ahead locally must still receive messages at
	// max(arrival, next poll), never before arrival.
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		p.Charge(Compute, 10)
		p.Post(1, Message{Arrival: p.Now() + 5, Payload: "x"})
	})
	e.Spawn(func(p *Proc) {
		got := p.Poll() // at time 0: nothing has arrived yet
		if len(got) != 0 {
			t.Errorf("received message before arrival: %v", got)
		}
		p.Charge(Compute, 100)
		got = p.Poll()
		if len(got) != 1 {
			t.Errorf("message missing at time 100: %v", got)
		}
	})
	e.Run()
}

func TestHasMessage(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		p.Post(1, Message{Arrival: 50})
	})
	e.Spawn(func(p *Proc) {
		if p.HasMessage() {
			t.Error("HasMessage true at t=0, arrival is 50")
		}
		p.Charge(Compute, 60)
		if !p.HasMessage() {
			t.Error("HasMessage false at t=60, arrival was 50")
		}
		p.Poll()
		if p.HasMessage() {
			t.Error("HasMessage true after drain")
		}
	})
	e.Run()
}

func TestManyProcsBarrierish(t *testing.T) {
	// n-1 workers send to proc 0; proc 0 replies to all; everyone finishes.
	const n = 16
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		seen := 0
		for seen < n-1 {
			for _, m := range p.WaitMessage() {
				seen++
				_ = m
			}
		}
		for j := 1; j < n; j++ {
			p.Post(j, Message{Arrival: p.Now() + 20})
		}
	})
	for i := 1; i < n; i++ {
		i := i
		e.Spawn(func(p *Proc) {
			p.Charge(Compute, Time(i))
			p.Post(0, Message{Arrival: p.Now() + 20})
			p.WaitMessage()
		})
	}
	makespan, _ := e.Run()
	if makespan <= 0 {
		t.Fatal("no progress")
	}
}

func TestMsgHeapProperty(t *testing.T) {
	// Property: pushing arbitrary arrivals and popping yields sorted order.
	f := func(arrivals []uint16) bool {
		var h msgHeap
		for _, a := range arrivals {
			h.push(Message{Arrival: Time(a)})
		}
		prev := Time(-1)
		for len(h) > 0 {
			m := h.pop()
			if m.Arrival < prev {
				return false
			}
			prev = m.Arrival
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgHeapStableWithinArrival(t *testing.T) {
	f := func(raw []uint8) bool {
		var h msgHeap
		// All same arrival and sender: pop order must equal send (seq) order.
		for i, r := range raw {
			_ = r
			h.push(Message{Arrival: 10, Handler: i, seq: uint64(i)})
		}
		for i := 0; len(h) > 0; i++ {
			if h.pop().Handler != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnginePingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const rounds = 1000
		e.Spawn(func(p *Proc) {
			p.Post(1, Message{Arrival: p.Now() + 10, Payload: 0})
			for {
				ms := p.WaitMessage()
				v := ms[len(ms)-1].Payload.(int)
				if v >= rounds {
					return
				}
				p.Post(1, Message{Arrival: p.Now() + 10, Payload: v + 1})
			}
		})
		e.Spawn(func(p *Proc) {
			for {
				ms := p.WaitMessage()
				v := ms[len(ms)-1].Payload.(int)
				p.Post(0, Message{Arrival: p.Now() + 10, Payload: v + 1})
				if v+1 >= rounds {
					return
				}
			}
		})
		e.Run()
	}
}
