package fm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	defer m.Close()
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
	defer m.Close()
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
	defer m.Close()
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
	defer m.Close()
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		ep.Barrier()
		ep.Barrier()
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
	defer m.Close()
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
	defer m.Close()
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
	defer m.Close()
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

// The tests below check the barrier against properties stated without
// reference to the implementation — no recorded numbers: the barrier
// property itself, with and without crashed nodes, and a closed-form cost
// bound.

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

// barrierRounds is how many consecutive barriers the property runs enter.
const barrierRounds = 3

// barrierOutcome is what one property run records per node: the entry and
// exit time of each barrier, how many it completed, and its errors' text.
type barrierOutcome struct {
	enter, exit [][barrierRounds]sim.Time
	done        []int
	errs        []string
}

// runBarriers runs barrierRounds barriers on n nodes, entered at shuffled
// times, under the given engine. A nil doomed set runs fault-free. Otherwise
// crashes are armed and the doomed nodes die before their first barrier: each
// charges past the crash time and checks the network. Each survivor's errors
// must be *CollectiveErrors or *UnreachableErrors naming a doomed node.
func runBarriers(t *testing.T, n int, doomed map[int]bool, engine sim.EngineKind) barrierOutcome {
	t.Helper()
	const crashAt = sim.Time(1000)
	cfg := machine.DefaultT3D(n)
	cfg.Engine = engine
	if doomed != nil {
		rate := float64(len(doomed)) / float64(n)
		cfg.Faults = machine.FaultConfig{
			FaultParams:   sim.FaultParams{Seed: findCrashSeed(t, n, rate, crashAt, doomed), CrashRate: rate, CrashAt: crashAt},
			RelRTO:        16384, // at 2048 the root's probe load read as false deaths
			RelMaxRetries: 3,
		}
	}
	delay := staggers(rand.New(rand.NewSource(int64(n))), barrierRounds, n, 137)
	out := barrierOutcome{
		enter: make([][barrierRounds]sim.Time, n),
		exit:  make([][barrierRounds]sim.Time, n),
		done:  make([]int, n),
		errs:  make([]string, n),
	}
	net := NewNet()
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		id := nd.ID()
		if doomed[id] {
			nd.Charge(sim.Compute, crashAt)
			ep.Poll()
			t.Errorf("n=%d: doomed node %d survived its crash point", n, id)
			return
		}
		for r := 0; r < barrierRounds; r++ {
			nd.Charge(sim.Compute, delay[r][id])
			out.enter[id][r] = nd.Now()
			ep.Barrier()
			out.exit[id][r] = nd.Now()
			out.done[id]++
		}
		ep.Quiesce()
		for _, err := range ep.errs {
			var ce *CollectiveError
			var ue *UnreachableError
			if !errors.As(err, &ce) && !(errors.As(err, &ue) && doomed[ue.To]) {
				t.Errorf("n=%d doomed %v node %d: %v", n, doomed, id, err)
			}
		}
		out.errs[id] = fmt.Sprint(ep.Err())
	}); err != nil {
		t.Fatalf("n=%d doomed %v: %v", n, doomed, err)
	}
	for r := 0; r < barrierRounds; r++ {
		lastIn, firstOut := sim.Time(0), sim.Forever
		for id := 0; id < n; id++ {
			if !doomed[id] {
				lastIn = max(lastIn, out.enter[id][r])
				firstOut = min(firstOut, out.exit[id][r])
			}
		}
		if firstOut < lastIn {
			t.Errorf("n=%d doomed %v barrier %d: a node left at %d, before the last entry at %d", n, doomed, r, firstOut, lastIn)
		}
	}
	for id, d := range out.done {
		if !doomed[id] && d != barrierRounds {
			t.Errorf("n=%d doomed %v: node %d completed %d barriers, want %d", n, doomed, id, d, barrierRounds)
		}
	}
	return out
}

// TestBarrierPropertyAllSizes: at every machine size through three tree
// levels (plus two deep, ragged ones), over three consecutive barriers
// entered at shuffled times, no node leaves a barrier before the last node
// has entered it, every node completes all three, and nothing degrades.
// Then the same with crash fates: the root alone; node 1, interior in a
// depth-3 tree at 70 nodes (grandchildren 21–36); a node with its parent;
// and nodes 0, 1 and 6 of 8 (dpabench -fault-seed 3 at -crash-rate 0.4). The
// survivors must all complete all three barriers with the barrier property
// among themselves, and both engines must agree on every time and error.
func TestBarrierPropertyAllSizes(t *testing.T) {
	sizes := []int{257, 1024}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		out := runBarriers(t, n, nil, sim.Sequential)
		for id, e := range out.errs {
			if e != "<nil>" {
				t.Errorf("n=%d node %d: %s", n, id, e)
			}
		}
	}
	for _, f := range []struct {
		n      int
		doomed []int
	}{
		{5, []int{0}}, {5, []int{1}}, {5, []int{0, 2}},
		{8, []int{0, 1, 6}},
		{21, []int{0}}, {21, []int{1}}, {21, []int{1, 5}},
		{70, []int{0}}, {70, []int{1}}, {70, []int{1, 5}},
	} {
		doomed := map[int]bool{}
		for _, id := range f.doomed {
			doomed[id] = true
		}
		seq := runBarriers(t, f.n, doomed, sim.Sequential)
		par := runBarriers(t, f.n, doomed, sim.Parallel)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("n=%d doomed %v: engines disagree:\n  seq: %+v\n  par: %+v", f.n, f.doomed, seq, par)
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
		defer m.Close()
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

// TestBarrierUnderLossOnly: with 5% message loss and no crashes the
// reliability layer hides the loss, and 64 nodes finish three barriers with
// nothing recorded.
func TestBarrierUnderLossOnly(t *testing.T) {
	const n = 64
	cfg := machine.DefaultT3D(n)
	cfg.Faults = machine.DefaultFaults(11, 0.05)
	var retransmits [n]int64
	net := NewNet()
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
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
// a slow peer outside its tree neighbourhood (retry budget exhausted while
// the peer computes without polling) and enters the barrier Degraded. A
// barrier waits per peer, so the unreachable non-tree peer costs node 1's
// barrier nothing: it records only the *UnreachableError, no
// *CollectiveError, and every node gets out — the engine reports no deadlock.
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
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
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
	var ue *UnreachableError
	if !errors.As(got, &ue) || ue.From != interior || ue.To != slow {
		t.Fatalf("interior node recorded %v, want an *UnreachableError for node %d", got, slow)
	}
	var ce *CollectiveError
	if errors.As(got, &ce) {
		t.Errorf("an unreachable non-tree peer degraded node %d's barrier: %+v", interior, ce)
	}
	for id, ok := range left {
		if !ok {
			t.Errorf("node %d never left the barrier", id)
		}
	}
}
