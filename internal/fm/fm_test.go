package fm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dpa/internal/machine"
	"dpa/internal/sim"
)

func TestActiveMessageDispatch(t *testing.T) {
	net := NewNet()
	type ctx struct{ got []int }
	h := net.Register(func(ep *EP, m sim.Message) {
		c := ep.Ctx.(*ctx)
		c.got = append(c.got, m.Payload.(int))
	})
	m := machine.New(machine.DefaultT3D(2))
	var received []int
	m.Run(func(n *machine.Node) {
		ep := NewEP(net, n)
		c := &ctx{}
		ep.Ctx = c
		if n.ID() == 0 {
			for i := 0; i < 3; i++ {
				ep.Send(1, h, i*10, 8)
			}
		} else {
			for len(c.got) < 3 {
				ep.WaitAndDispatch()
			}
			received = c.got
		}
	})
	if len(received) != 3 || received[0] != 0 || received[1] != 10 || received[2] != 20 {
		t.Fatalf("received %v", received)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	net := NewNet()
	m := machine.New(machine.DefaultT3D(n))
	var before, after [n]sim.Time
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		// Stagger the nodes heavily.
		nd.Charge(sim.Compute, sim.Time(nd.ID()*10000))
		before[nd.ID()] = nd.Now()
		ep.Barrier()
		after[nd.ID()] = nd.Now()
	})
	// Every node must leave the barrier no earlier than the slowest node
	// entered it.
	var maxBefore sim.Time
	for _, b := range before {
		if b > maxBefore {
			maxBefore = b
		}
	}
	for i, a := range after {
		if a < maxBefore {
			t.Errorf("node %d left barrier at %d, before slowest entry %d", i, a, maxBefore)
		}
	}
}

func TestMultipleBarriers(t *testing.T) {
	const n = 4
	const rounds = 5
	net := NewNet()
	m := machine.New(machine.DefaultT3D(n))
	counts := make([]int, n)
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		for r := 0; r < rounds; r++ {
			nd.Charge(sim.Compute, sim.Time((nd.ID()+1)*100*(r+1)))
			ep.Barrier()
			counts[nd.ID()]++
		}
	})
	for i, c := range counts {
		if c != rounds {
			t.Errorf("node %d completed %d barriers, want %d", i, c, rounds)
		}
	}
}

func TestBarrierSingleNode(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		ep.Barrier()
		ep.Barrier()
	})
}

func TestAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		net := NewNet()
		m := machine.New(machine.DefaultT3D(n))
		results := make([]float64, n)
		m.Run(func(nd *machine.Node) {
			ep := NewEP(net, nd)
			results[nd.ID()] = ep.AllReduceSum(float64(nd.ID() + 1))
		})
		want := float64(n*(n+1)) / 2
		for i, r := range results {
			if r != want {
				t.Errorf("n=%d node %d: reduce = %v, want %v", n, i, r, want)
			}
		}
	}
}

func TestAllReduceRepeated(t *testing.T) {
	const n = 4
	net := NewNet()
	m := machine.New(machine.DefaultT3D(n))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		for r := 1; r <= 3; r++ {
			got := ep.AllReduceSum(float64(r))
			if got != float64(r*n) {
				t.Errorf("round %d: got %v want %v", r, got, float64(r*n))
			}
		}
	})
}

func TestServiceDuringBarrier(t *testing.T) {
	// Node 1 enters the barrier early but must keep serving request
	// handlers from node 0 that arrive while it waits.
	net := NewNet()
	served := 0
	var hReq, hResp int
	hReq = net.Register(func(ep *EP, m sim.Message) {
		served++
		ep.Send(m.From, hResp, m.Payload, 8)
	})
	hResp = net.Register(func(ep *EP, m sim.Message) {
		c := ep.Ctx.(*int)
		*c++
	})
	m := machine.New(machine.DefaultT3D(2))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		replies := 0
		ep.Ctx = &replies
		if nd.ID() == 0 {
			nd.Charge(sim.Compute, 50000) // let node 1 reach the barrier first
			for i := 0; i < 10; i++ {
				ep.Send(1, hReq, i, 8)
			}
			for replies < 10 {
				ep.WaitAndDispatch()
			}
		}
		ep.Barrier()
	})
	if served != 10 {
		t.Fatalf("node 1 served %d requests during barrier, want 10", served)
	}
}

func TestRegisterAfterSealPanics(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		NewEP(net, nd)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Register(func(ep *EP, m sim.Message) {})
}

func TestUnknownHandlerTypedError(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(2))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			ep.Send(1, 999, nil, 4)
			return
		}
		ep.WaitAndDispatch()
		err := ep.Err()
		if err == nil {
			t.Error("expected recorded error for unknown handler")
			return
		}
		if !errors.Is(err, ErrUnknownHandler) {
			t.Errorf("error %v is not ErrUnknownHandler", err)
		}
		var he *HandlerError
		if !errors.As(err, &he) {
			t.Errorf("error %v is not *HandlerError", err)
		} else if he.Handler != 999 || he.Node != 1 || he.From != 0 {
			t.Errorf("bad HandlerError %+v", he)
		}
		if fs := ep.FaultStats(); fs.UnknownHandler != 1 {
			t.Errorf("UnknownHandler count = %d, want 1", fs.UnknownHandler)
		}
	})
}

// The tests below check the tree collectives against properties stated
// without reference to the implementation — no second engine, no recorded
// numbers: the barrier property itself, a host-side fold, and a closed-form
// cost bound.

// staggers returns a shuffled entry delay per (round, node): round r's
// delays are a fresh permutation of 0, step, 2·step, …, so nodes arrive in
// an order unrelated to their ids and different every round.
func staggers(rng *rand.Rand, rounds, n int, step sim.Time) [][]sim.Time {
	out := make([][]sim.Time, rounds)
	for r := range out {
		out[r] = make([]sim.Time, n)
		for i, p := range rng.Perm(n) {
			out[r][i] = sim.Time(p) * step
		}
	}
	return out
}

// TestBarrierPropertyAllSizes: at every machine size through three tree
// levels (plus two deep, ragged ones), over three consecutive barriers
// entered at shuffled times, no node leaves a barrier before the last node
// has entered it, every node completes all three, and nothing degrades.
func TestBarrierPropertyAllSizes(t *testing.T) {
	const rounds = 3
	sizes := []int{257, 1024}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		delay := staggers(rand.New(rand.NewSource(int64(n))), rounds, n, 137)
		enter := make([][rounds]sim.Time, n)
		exit := make([][rounds]sim.Time, n)
		done := make([]int, n)
		net := NewNet()
		if _, err := machine.New(machine.DefaultT3D(n)).Run(func(nd *machine.Node) {
			ep := NewEP(net, nd)
			id := nd.ID()
			for r := 0; r < rounds; r++ {
				nd.Charge(sim.Compute, delay[r][id])
				enter[id][r] = nd.Now()
				ep.Barrier()
				exit[id][r] = nd.Now()
				done[id]++
			}
			if err := ep.Err(); err != nil {
				t.Errorf("n=%d node %d: %v", n, id, err)
			}
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < rounds; r++ {
			lastIn, firstOut := sim.Time(0), sim.Forever
			for id := 0; id < n; id++ {
				lastIn = max(lastIn, enter[id][r])
				firstOut = min(firstOut, exit[id][r])
			}
			if firstOut < lastIn {
				t.Errorf("n=%d barrier %d: a node left at %d, before the last entry at %d", n, r, firstOut, lastIn)
			}
		}
		for id, d := range done {
			if d != rounds {
				t.Errorf("n=%d node %d completed %d barriers, want %d", n, id, d, rounds)
			}
		}
	}
}

// treeFold is the host-side reference for AllReduceSum: own value first,
// then each child's subtree total in child-index order.
func treeFold(vals []float64, id int) float64 {
	v := vals[id]
	for c := fanIn*id + 1; c <= fanIn*id+fanIn && c < len(vals); c++ {
		v += treeFold(vals, c)
	}
	return v
}

// TestAllReduceSumOrderIsTheTrees: with inputs whose sum depends on the
// order of additions, every node gets the same bits, those bits are the
// tree-order fold's, and neither the arrival order nor the engine moves them.
func TestAllReduceSumOrderIsTheTrees(t *testing.T) {
	for _, n := range []int{2, 5, 6, 21, 22, 70, 257} {
		// Mixed signs across forty binary orders of magnitude: most additions
		// round, so most reorderings change the low bits. Past one level the
		// tree's order is not id order; take the first seed that shows it.
		vals := make([]float64, n)
		var want uint64
		for seed := int64(n); ; seed++ {
			rng := rand.New(rand.NewSource(seed))
			flat := 0.0
			for i := range vals {
				vals[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(40))
				flat += vals[i]
			}
			want = math.Float64bits(treeFold(vals, 0))
			if n <= fanIn+1 || want != math.Float64bits(flat) {
				break
			}
		}
		for trial := 0; trial < 4; trial++ {
			cfg := machine.DefaultT3D(n)
			if trial == 3 {
				cfg.Engine = sim.Parallel
			}
			delay := staggers(rand.New(rand.NewSource(int64(100*n+trial))), 2, n, 911)
			got := make([][2]uint64, n)
			net := NewNet()
			if _, err := machine.New(cfg).Run(func(nd *machine.Node) {
				ep := NewEP(net, nd)
				id := nd.ID()
				for r := 0; r < 2; r++ { // twice: the slots must come back clean
					nd.Charge(sim.Compute, delay[r][id])
					got[id][r] = math.Float64bits(ep.AllReduceSum(vals[id]))
				}
				if err := ep.Err(); err != nil {
					t.Errorf("n=%d node %d: %v", n, id, err)
				}
			}); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for id, g := range got {
				if g != [2]uint64{want, want} {
					t.Fatalf("n=%d trial %d node %d: sums %x, want tree fold %x twice", n, trial, id, g, want)
				}
			}
		}
	}
}

// TestBarrierCostIsLogarithmic: from the last entry to the last exit a
// 1024-node barrier may spend, per tree level and direction, one parent's
// worth of work — fanIn receives or fanIn sends — plus a network crossing.
// The flat protocol this replaced spent 1023 receives and 1023 sends at node
// 0, 24× over the bound; any O(N) hot spot at any node fails here.
func TestBarrierCostIsLogarithmic(t *testing.T) {
	const n = 1024
	levels := 0
	for span := 1; span < n; span *= fanIn {
		levels++ // ⌈log_fanIn n⌉
	}
	for _, step := range []sim.Time{0, 53} { // all at once, then staggered
		m := machine.New(machine.DefaultT3D(n))
		c := &m.Cfg
		var maxLatency sim.Time
		for to := 1; to < n; to++ {
			maxLatency = max(maxLatency, c.TransitTime(0, to, 4))
		}
		perLevel := fanIn*(c.RecvOverhead+c.HandlerCost+c.PollCost) + fanIn*c.SendOverhead + maxLatency
		bound := 2 * sim.Time(levels) * perLevel

		delay := staggers(rand.New(rand.NewSource(1)), 1, n, step)[0]
		var enter, exit [n]sim.Time
		net := NewNet()
		if _, err := m.Run(func(nd *machine.Node) {
			ep := NewEP(net, nd)
			nd.Charge(sim.Compute, delay[nd.ID()])
			enter[nd.ID()] = nd.Now()
			ep.Barrier()
			exit[nd.ID()] = nd.Now()
		}); err != nil {
			t.Fatal(err)
		}
		lastIn, lastOut := slices.Max(enter[:]), slices.Max(exit[:])
		got := lastOut - lastIn
		t.Logf("step %d: %d cycles from last entry to last exit, bound %d (%d levels × 2 × %d)",
			step, got, bound, levels, perLevel)
		if got > bound {
			t.Errorf("step %d: barrier latency is over the bound", step)
		}
	}
}

// TestBarrierUnderLossOnly: 5% message loss with no crashes is the tree's
// path (the hub runs only when crashes are armed); the reliability layer
// hides the loss and 64 nodes finish three barriers with nothing recorded.
func TestBarrierUnderLossOnly(t *testing.T) {
	const n = 64
	cfg := machine.DefaultT3D(n)
	cfg.Faults = machine.DefaultFaults(11, 0.05)
	var retransmits [n]int64
	net := NewNet()
	if _, err := machine.New(cfg).Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		for r := 0; r < 3; r++ {
			ep.Barrier()
		}
		ep.Quiesce()
		if err := ep.Err(); err != nil {
			t.Errorf("node %d: %v", nd.ID(), err)
		}
		retransmits[nd.ID()] = ep.FaultStats().Retransmits
	}); err != nil {
		t.Fatal(err)
	}
	if slices.Max(retransmits[:]) == 0 {
		t.Error("no node retransmitted: the run did not exercise loss")
	}
}

// TestDegradedInteriorNodeReleasesItsSubtree: an interior node gives up on
// a slow peer (retry budget exhausted while the peer computes without
// polling) and enters the barrier Degraded. It must record a
// *CollectiveError naming itself, and — because it still sends its arrive
// and forwards the release — every other node must get out: the engine
// reports no deadlock.
func TestDegradedInteriorNodeReleasesItsSubtree(t *testing.T) {
	const (
		n        = 21 // full tree of depth 2: node 1 is interior, 20 a leaf under 4
		interior = 1
		slow     = 20
	)
	cfg := machine.DefaultT3D(n)
	cfg.Faults = machine.FaultConfig{Reliable: true, RelRTO: 512, RelMaxRetries: 2}
	net := NewNet()
	h := net.Register(func(ep *EP, m sim.Message) {})
	var got error
	left := make([]bool, n)
	if _, err := machine.New(cfg).Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		switch nd.ID() {
		case interior:
			ep.Send(slow, h, nil, 8)
			for !ep.Unreachable(slow) {
				ep.WaitAndDispatch()
			}
		case slow:
			nd.Charge(sim.Compute, 100000) // far past 512·(1+2+4)
		}
		ep.Barrier()
		left[nd.ID()] = true
		if nd.ID() == interior {
			got = ep.Err()
		}
		ep.Quiesce()
	}); err != nil {
		t.Fatalf("engine error (a hung subtree shows up as a deadlock): %v", err)
	}
	var ce *CollectiveError
	if !errors.As(got, &ce) {
		t.Fatalf("interior node recorded %v, want a *CollectiveError", got)
	}
	if ce.Op != "barrier" || ce.Node != interior || ce.Missing == 0 {
		t.Errorf("bad CollectiveError %+v", ce)
	}
	for id, ok := range left {
		if !ok {
			t.Errorf("node %d never left the barrier", id)
		}
	}
}
