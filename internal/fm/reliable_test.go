package fm

import (
	"errors"
	"testing"

	"dpa/internal/machine"
	"dpa/internal/sim"
)

// relTestConfig returns a machine config with seeded loss and short
// protocol timers, so the tests exercise retransmission quickly.
func relTestConfig(nodes int, drop, dup float64, seed uint64) machine.Config {
	cfg := machine.DefaultT3D(nodes)
	cfg.Faults = machine.FaultConfig{
		FaultParams:   sim.FaultParams{Seed: seed, DropRate: drop, DupRate: dup},
		Reliable:      true,
		RelRTO:        4096,
		RelMaxRetries: 6,
	}
	return cfg
}

// TestReliableDeliveryUnderLoss: every payload sent through a lossy network
// is delivered exactly once, in per-sender order of admission, and the
// sender retransmits to get them there.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	const sent = 300
	net := NewNet()
	type ctx struct{ got []int }
	h := net.Register(func(ep *EP, m sim.Message) {
		c := ep.Ctx.(*ctx)
		c.got = append(c.got, m.Payload.(int))
	})
	m := machine.New(relTestConfig(2, 0.2, 0.1, 41))
	defer m.Close()
	var receiver *ctx
	var senderStats FaultStats
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		c := &ctx{}
		ep.Ctx = c
		if nd.ID() == 0 {
			for i := 0; i < sent; i++ {
				ep.Send(1, h, i, 8)
			}
			ep.Quiesce()
			ep.Barrier()
			ep.Quiesce()
			senderStats = ep.FaultStats()
			if err := ep.Err(); err != nil {
				t.Errorf("sender degraded: %v", err)
			}
			return
		}
		receiver = c
		ep.Barrier()
		ep.Quiesce()
	}); err != nil {
		t.Fatal(err)
	}
	if len(receiver.got) != sent {
		t.Fatalf("delivered %d payloads, want %d", len(receiver.got), sent)
	}
	seen := make(map[int]bool, sent)
	for _, v := range receiver.got {
		if seen[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		seen[v] = true
	}
	if senderStats.Retransmits == 0 {
		t.Error("no retransmissions at 20% loss")
	}
}

// TestDuplicateSuppression: with duplication but no loss, the inner handler
// still fires exactly once per send, and the suppressed duplicates are
// counted on the receiver.
func TestDuplicateSuppression(t *testing.T) {
	const sent = 200
	net := NewNet()
	var fired int
	h := net.Register(func(ep *EP, m sim.Message) { fired++ })
	m := machine.New(relTestConfig(2, 0, 0.4, 43))
	defer m.Close()
	var recvStats FaultStats
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			for i := 0; i < sent; i++ {
				ep.Send(1, h, nil, 8)
			}
			ep.Quiesce()
			ep.Barrier()
			ep.Quiesce()
			return
		}
		ep.Barrier()
		ep.Quiesce()
		recvStats = ep.FaultStats()
	}); err != nil {
		t.Fatal(err)
	}
	if fired != sent {
		t.Fatalf("handler fired %d times, want %d", fired, sent)
	}
	if recvStats.DupsSuppressed == 0 {
		t.Error("no duplicates suppressed at 40% duplication")
	}
	if recvStats.AcksSent < int64(sent) {
		t.Errorf("acks sent %d, want >= %d (every data frame is acked)", recvStats.AcksSent, sent)
	}
}

// TestSendWindowBacklog: with a tiny window and an unresponsive-but-alive
// receiver, sends beyond the window queue in the backlog and drain as acks
// free slots; everything is eventually delivered.
func TestSendWindowBacklog(t *testing.T) {
	const sent = 64
	cfg := machine.DefaultT3D(2)
	cfg.Faults = machine.FaultConfig{Reliable: true, RelWindow: 4}
	net := NewNet()
	var fired int
	h := net.Register(func(ep *EP, m sim.Message) { fired++ })
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			for i := 0; i < sent; i++ {
				ep.Send(1, h, nil, 8)
			}
			ep.Quiesce()
			ep.Barrier()
			ep.Quiesce()
			return
		}
		ep.Barrier()
		ep.Quiesce()
	}); err != nil {
		t.Fatal(err)
	}
	if fired != sent {
		t.Fatalf("handler fired %d times, want %d", fired, sent)
	}
}

// TestUnreachableDeclaration: at 100% loss the sender exhausts its retries,
// declares the destination dead, records an UnreachableError wrapping
// ErrUnreachable, and subsequent sends are dropped and counted.
func TestUnreachableDeclaration(t *testing.T) {
	cfg := relTestConfig(2, 1.0, 0, 47)
	cfg.Faults.RelRTO = 256
	cfg.Faults.RelMaxRetries = 3
	net := NewNet()
	h := net.Register(func(ep *EP, m sim.Message) {})
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			ep.Send(1, h, nil, 8)
			for !ep.Unreachable(1) {
				ep.WaitAndDispatch()
			}
			err := ep.Err()
			if !errors.Is(err, ErrUnreachable) {
				t.Errorf("error %v does not wrap ErrUnreachable", err)
			}
			var ue *UnreachableError
			if !errors.As(err, &ue) {
				t.Errorf("error %v is not *UnreachableError", err)
			} else if ue.To != 1 || ue.Attempts != 3 {
				t.Errorf("bad UnreachableError %+v", ue)
			}
			if !ep.Degraded() {
				t.Error("Degraded() false after unreachable declaration")
			}
			before := ep.FaultStats().Exhausted
			ep.Send(1, h, nil, 8) // dropped silently, counted
			if got := ep.FaultStats().Exhausted; got != before+1 {
				t.Errorf("post-death send not counted: %d vs %d", got, before+1)
			}
			ep.Quiesce() // must return immediately: dead queues are cleared
			ep.Barrier()
			return
		}
		ep.Barrier()
		ep.Quiesce()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRetransmitBackoff: each retry doubles the timeout (default backoff),
// so the k-th retransmission happens ~RTO*(2^k - 1) after the send.
func TestRetransmitBackoff(t *testing.T) {
	cfg := relTestConfig(2, 1.0, 0, 53)
	cfg.Faults.RelRTO = 1000
	cfg.Faults.RelMaxRetries = 4
	net := NewNet()
	h := net.Register(func(ep *EP, m sim.Message) {})
	m := machine.New(cfg)
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			start := nd.Now()
			ep.Send(1, h, nil, 8)
			for !ep.Unreachable(1) {
				ep.WaitAndDispatch()
			}
			elapsed := nd.Now() - start
			// Retries at ~1000, 3000, 7000, 15000 cycles after transmit:
			// exhaustion no earlier than RTO*(2^4 - 1).
			if elapsed < 15000 {
				t.Errorf("exhausted after %d cycles, want >= 15000 (backoff not applied)", elapsed)
			}
			ep.Barrier()
			return
		}
		ep.Barrier()
		ep.Quiesce()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReliabilityOffIsTransparent: with Reliable unset and no loss, EP.Send
// must not wrap messages in reliability frames (the hot path is untouched).
func TestReliabilityOffIsTransparent(t *testing.T) {
	net := NewNet()
	var got []sim.Message
	h := net.Register(func(ep *EP, m sim.Message) { got = append(got, m) })
	m := machine.New(machine.DefaultT3D(2))
	defer m.Close()
	if _, err := m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if ep.Degraded() || ep.Unreachable(1) {
			t.Error("degradation reported with reliability off")
		}
		if nd.ID() == 0 {
			ep.Send(1, h, "x", 8)
			return
		}
		ep.WaitAndDispatch()
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Handler != h || got[0].Payload.(string) != "x" {
		t.Fatalf("bad delivery %+v", got)
	}
	if fs := (FaultStats{}); fs.Any() {
		t.Error("zero FaultStats reported Any")
	}
}
