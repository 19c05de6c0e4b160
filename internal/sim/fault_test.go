package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestFaultPlanDisabled(t *testing.T) {
	if p := NewFaultPlan(FaultParams{Seed: 1}); p != nil {
		t.Fatal("zero rates must yield a nil plan")
	}
	// Jitter and stall need both a rate and a magnitude to mean anything.
	if p := NewFaultPlan(FaultParams{JitterRate: 0.5}); p != nil {
		t.Fatal("jitter rate without MaxJitter must yield a nil plan")
	}
	if p := NewFaultPlan(FaultParams{StallRate: 0.5}); p != nil {
		t.Fatal("stall rate without StallCycles must yield a nil plan")
	}
}

func TestFaultParamsValidate(t *testing.T) {
	nan := math.NaN()
	bad := []FaultParams{
		{DropRate: -0.1},
		{DropRate: 1.1},
		{DupRate: 2},
		{JitterRate: -1},
		{StallRate: 1.5},
		{MaxJitter: -1},
		{StallCycles: -5},
		{DropRate: nan},
		{DupRate: nan},
		{JitterRate: nan},
		{StallRate: nan},
		{CrashRate: nan, CrashAt: 100},
		{CrashRate: 1.5},
		{CrashAt: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadFaults) {
			t.Errorf("params %+v: Validate = %v, want an ErrBadFaults error", p, err)
		}
	}
	// The error names the field and its value.
	if err := (&FaultParams{StallRate: nan}).Validate(); err == nil || !strings.Contains(err.Error(), "StallRate") {
		t.Errorf("NaN StallRate: error %v does not name the field", err)
	}
	if err := (&FaultParams{DropRate: 2}).Validate(); err == nil || err.Error() != "sim: fault DropRate = 2, must be in [0, 1]" {
		t.Errorf("DropRate 2: error %q", err)
	}
	ok := FaultParams{DropRate: 0.5, DupRate: 0.1, JitterRate: 1,
		MaxJitter: 10, StallRate: 0.2, StallCycles: 100}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestFaultPlanPure: the fate of message (sender, seq) is a pure function
// of the seed — independent of query order and repetition.
func TestFaultPlanPure(t *testing.T) {
	p := FaultParams{Seed: 42, DropRate: 0.2, DupRate: 0.1, JitterRate: 0.3, MaxJitter: 100}
	plan := NewFaultPlan(p)
	type key struct {
		sender int
		seq    uint64
	}
	fates := map[key]MsgFate{}
	for sender := 0; sender < 4; sender++ {
		for seq := uint64(0); seq < 200; seq++ {
			fates[key{sender, seq}] = plan.Message(sender, seq)
		}
	}
	// Re-query in a different order, against a fresh plan.
	plan2 := NewFaultPlan(p)
	for seq := uint64(199); ; seq-- {
		for sender := 3; sender >= 0; sender-- {
			if got := plan2.Message(sender, seq); got != fates[key{sender, seq}] {
				t.Fatalf("fate of (%d,%d) changed across query order: %+v vs %+v",
					sender, seq, got, fates[key{sender, seq}])
			}
		}
		if seq == 0 {
			break
		}
	}
}

// TestFaultPlanRates: empirical rates over many draws match the configured
// rates, and jitter magnitudes stay within bounds.
func TestFaultPlanRates(t *testing.T) {
	const n = 20000
	p := FaultParams{Seed: 7, DropRate: 0.25, DupRate: 0.1, JitterRate: 0.5, MaxJitter: 64}
	plan := NewFaultPlan(p)
	var drops, dups, jits int
	for seq := uint64(0); seq < n; seq++ {
		f := plan.Message(1, seq)
		if f.Drop {
			drops++
			continue // drop short-circuits the rest
		}
		if f.Dup {
			dups++
			if f.DupJitter < 0 || f.DupJitter > p.MaxJitter {
				t.Fatalf("dup jitter %d out of [0,%d]", f.DupJitter, p.MaxJitter)
			}
		}
		if f.Jitter != 0 {
			jits++
			if f.Jitter < 1 || f.Jitter > p.MaxJitter {
				t.Fatalf("jitter %d out of [1,%d]", f.Jitter, p.MaxJitter)
			}
		}
	}
	within := func(got int, rate float64, of int) bool {
		want := rate * float64(of)
		return float64(got) > want*0.9 && float64(got) < want*1.1
	}
	if !within(drops, p.DropRate, n) {
		t.Errorf("drops %d, want ~%v", drops, p.DropRate*n)
	}
	if !within(dups, p.DupRate, n-drops) {
		t.Errorf("dups %d, want ~%v", dups, p.DupRate*float64(n-drops))
	}
	if !within(jits, p.JitterRate, n-drops) {
		t.Errorf("jitters %d, want ~%v", jits, p.JitterRate*float64(n-drops))
	}
	if plan.Message(2, 3).Drop != plan.Message(2, 3).Drop {
		t.Error("unstable fate")
	}
}

func TestFaultPlanStall(t *testing.T) {
	plan := NewFaultPlan(FaultParams{Seed: 9, StallRate: 0.3, StallCycles: 500})
	var hits int
	const n = 10000
	for op := uint64(0); op < n; op++ {
		d := plan.Stall(2, op)
		if d != 0 && d != 500 {
			t.Fatalf("stall duration %d, want 0 or 500", d)
		}
		if d != 0 {
			hits++
		}
		if d != plan.Stall(2, op) {
			t.Fatal("stall fate not pure")
		}
	}
	if float64(hits) < 0.27*n || float64(hits) > 0.33*n {
		t.Errorf("stall hits %d, want ~%v", hits, 0.3*n)
	}
}

// TestMailboxHeavyJitterMergeOrder drives the two-lane mailbox (sorted ring
// + overflow heap) with a jittered arrival pattern — mostly in-order pushes
// with frequent out-of-order spills — interleaved with pops, and checks the
// merge invariant: every popped message is the minimum, by delivery key
// (Arrival, From, seq), of everything pending at that moment.
func TestMailboxHeavyJitterMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var mb mailbox
	var pending []Message

	key := func(m *Message) [3]int64 {
		return [3]int64{int64(m.Arrival), int64(m.From), int64(m.seq)}
	}
	le := func(a, b [3]int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return true
	}

	seqs := map[int]uint64{}
	base := Time(0)
	for step := 0; step < 30000; step++ {
		if mb.size() > 0 && rng.Intn(3) == 0 {
			// Pop and verify it is the global minimum of the model.
			got := mb.pop()
			sort.Slice(pending, func(i, j int) bool {
				return le(key(&pending[i]), key(&pending[j]))
			})
			want := pending[0]
			pending = pending[1:]
			if key(&got) != key(&want) {
				t.Fatalf("step %d: popped %v, want %v", step, key(&got), key(&want))
			}
			continue
		}
		from := rng.Intn(4)
		base += Time(rng.Intn(3))
		m := Message{
			Arrival: base + Time(rng.Intn(200)), // heavy jitter: often out of order
			From:    from,
			Handler: step,
		}
		m.seq = seqs[from]
		seqs[from]++
		mb.push(m)
		pending = append(pending, m)

		// The peeked arrival must match the model's minimum.
		if a, ok := mb.peekArrival(); !ok {
			t.Fatal("peek reported empty mailbox after push")
		} else {
			min := pending[0]
			for i := range pending {
				if le(key(&pending[i]), key(&min)) {
					min = pending[i]
				}
			}
			if a != min.Arrival {
				t.Fatalf("step %d: peek %d, want %d", step, a, min.Arrival)
			}
		}
	}
	// Drain the remainder fully in order.
	sort.Slice(pending, func(i, j int) bool { return le(key(&pending[i]), key(&pending[j])) })
	for i := range pending {
		got := mb.pop()
		if key(&got) != key(&pending[i]) {
			t.Fatalf("drain %d: popped %v, want %v", i, key(&got), key(&pending[i]))
		}
	}
	if mb.size() != 0 {
		t.Fatalf("mailbox not empty after drain: %d left", mb.size())
	}
}

// TestMailboxRingCompaction exercises the never-fully-drained ring path
// (head > 64 with half the slice consumed) under in-order pushes.
func TestMailboxRingCompaction(t *testing.T) {
	var mb mailbox
	var next uint64
	popped := Time(-1)
	for i := 0; i < 1000; i++ {
		mb.push(Message{Arrival: Time(i), From: 0, seq: next})
		next++
		if i%2 == 1 { // pop half as fast as we push: head keeps growing
			m := mb.pop()
			if m.Arrival <= popped {
				t.Fatalf("pop out of order: %d after %d", m.Arrival, popped)
			}
			popped = m.Arrival
		}
	}
	for mb.size() > 0 {
		m := mb.pop()
		if m.Arrival <= popped {
			t.Fatalf("drain out of order: %d after %d", m.Arrival, popped)
		}
		popped = m.Arrival
	}
}

// TestWaitMessageUntilTimeout: with no message pending, the wait advances
// the clock exactly to the deadline, charging idle time.
func TestWaitMessageUntilTimeout(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		got := p.WaitMessageUntil(500)
		if len(got) != 0 {
			t.Errorf("timeout wait returned %d messages", len(got))
		}
		if p.Now() != 500 {
			t.Errorf("clock after timeout = %d, want 500", p.Now())
		}
		if idle := p.Charges()[Idle]; idle != 500 {
			t.Errorf("idle charge = %d, want 500", idle)
		}
	})
	e.Run()
}

// TestWaitMessageUntilDelivery: a message arriving before the deadline is
// delivered at its arrival time, not at the deadline.
func TestWaitMessageUntilDelivery(t *testing.T) {
	e := NewEngine()
	e.Spawn(func(p *Proc) {
		p.Post(1, Message{Arrival: 200, Handler: 5})
	})
	e.Spawn(func(p *Proc) {
		got := p.WaitMessageUntil(10000)
		if len(got) != 1 || got[0].Handler != 5 {
			t.Errorf("bounded wait got %v", got)
		}
		if p.Now() != 200 {
			t.Errorf("clock after delivery = %d, want 200", p.Now())
		}
	})
	e.Run()
}

// TestWaitMessageUntilEngineEquivalence: timeouts interleaved with traffic
// must behave identically under both engines (the bounded wait only
// advances the local clock inside the granted horizon).
func TestWaitMessageUntilEngineEquivalence(t *testing.T) {
	build := func(e Engine) *Proc {
		e.Spawn(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Charge(Compute, Time(70+i*13))
				p.Post(1, Message{Arrival: p.Now() + 50, Handler: i})
			}
		})
		return e.Spawn(func(p *Proc) {
			seen := 0
			for seen < 20 {
				ms := p.WaitMessageUntil(p.Now() + 60)
				seen += len(ms)
				p.Charge(Compute, 5)
			}
		})
	}
	seqE := NewEngine()
	pSeq := build(seqE)
	seqE.Run()
	parE := NewParallel(50, 0)
	pPar := build(parE)
	parE.Run()
	if pSeq.Now() != pPar.Now() {
		t.Fatalf("receiver clocks diverge: seq %d, par %d", pSeq.Now(), pPar.Now())
	}
	if pSeq.Charges() != pPar.Charges() {
		t.Fatalf("receiver charges diverge: %v vs %v", pSeq.Charges(), pPar.Charges())
	}
}
