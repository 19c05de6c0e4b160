package fm

import (
	"errors"
	"fmt"
	"slices"

	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// FaultStats aliases the shared fault-counter block so endpoint counters
// merge straight into the run record.
type FaultStats = stats.FaultStats

// ErrUnreachable is the sentinel wrapped by every *UnreachableError; test
// with errors.Is. It surfaces through the run result when a destination's
// retry budget is exhausted and the runtimes degrade instead of hanging.
var ErrUnreachable = errors.New("fm: destination unreachable")

// ErrUnknownHandler is the sentinel wrapped by every *HandlerError.
var ErrUnknownHandler = errors.New("fm: unknown handler")

// UnreachableError reports that From gave up on To after exhausting the
// retransmission budget for some frame; Lost counts the frames (in flight
// plus backlogged) discarded with the declaration.
type UnreachableError struct {
	From, To int
	Attempts int
	Lost     int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("fm: node %d: node %d unreachable after %d retransmissions (%d frames lost)",
		e.From, e.To, e.Attempts, e.Lost)
}

func (e *UnreachableError) Unwrap() error { return ErrUnreachable }

// HandlerError reports a delivered message naming an unregistered handler.
type HandlerError struct {
	Node, From, Handler int
}

func (e *HandlerError) Error() string {
	return fmt.Sprintf("fm: node %d received unknown handler %d from node %d",
		e.Node, e.Handler, e.From)
}

func (e *HandlerError) Unwrap() error { return ErrUnknownHandler }

// CollectiveError reports a barrier that completed degraded: it routed
// around Missing peers declared unreachable.
type CollectiveError struct {
	Op      string
	Node    int
	Missing int
}

func (e *CollectiveError) Error() string {
	return fmt.Sprintf("fm: node %d: %s degraded, %d peer(s) missing", e.Node, e.Op, e.Missing)
}

func (e *CollectiveError) Unwrap() error { return ErrUnreachable }

func joinErrors(errs []error) error { return errors.Join(errs...) }

// relHeaderBytes is the modeled wire overhead of a reliable frame (sequence
// number plus handler id) on top of the inner payload.
const relHeaderBytes = 12

// relFrame is the wire payload of a reliable data frame: the inner active
// message plus the per-destination sequence number used for ordering-free
// duplicate suppression.
type relFrame struct {
	Seq     uint64
	Handler int
	Payload any
	Bytes   int
}

// relPending tracks one transmitted-but-unacked frame.
type relPending struct {
	frame    *relFrame
	wire     int      // frame bytes on the wire
	attempts int      // retransmissions so far
	rto      sim.Time // current timeout (doubles per retry)
	deadline sim.Time // virtual time at which to retransmit
}

// relDest is the sender-side state for one destination.
type relDest struct {
	nextSeq  uint64
	inflight []*relPending // transmitted, unacked, oldest first
	backlog  []*relPending // waiting for window space
	dead     bool          // retry budget exhausted; drops further sends
}

// relSrc is the receiver-side duplicate-suppression state for one sender:
// every sequence below `below` has been delivered, plus the sparse set of
// out-of-order deliveries above it.
type relSrc struct {
	below uint64
	seen  map[uint64]struct{}
}

// admit reports whether seq is new, recording it if so.
func (s *relSrc) admit(seq uint64) bool {
	if seq < s.below {
		return false
	}
	if _, dup := s.seen[seq]; dup {
		return false
	}
	if seq == s.below {
		s.below++
		for {
			if _, ok := s.seen[s.below]; !ok {
				break
			}
			delete(s.seen, s.below)
			s.below++
		}
		return true
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{})
	}
	s.seen[seq] = struct{}{}
	return true
}

// relState is one endpoint's reliability-protocol state. All scheduling is
// in virtual time, so the protocol is as deterministic as the fault plan
// driving the losses it recovers from.
type relState struct {
	window     int
	rto0       sim.Time
	backoff    sim.Time
	maxRetries int
	ackBytes   int

	dest      []relDest
	src       []relSrc
	live      int // unacked frames across all live destinations
	deadCount int
}

func newRelState(fc *machine.FaultConfig, nodes int) *relState {
	return &relState{
		window:     fc.Window(),
		rto0:       fc.RTO(),
		backoff:    sim.Time(fc.Backoff()),
		maxRetries: fc.MaxRetries(),
		ackBytes:   fc.AckBytes(),
		dest:       make([]relDest, nodes),
		src:        make([]relSrc, nodes),
	}
}

// relSend queues or transmits one reliable frame to dst. Sends to a dead
// destination are dropped (the unreachable error was already recorded) and
// counted as exhausted so the loss is visible in the run table.
func (ep *EP) relSend(dst, handler int, payload any, bytes int) {
	r := ep.rel
	d := &r.dest[dst]
	if d.dead {
		ep.fs.Exhausted++
		return
	}
	pd := &relPending{
		frame: &relFrame{Seq: d.nextSeq, Handler: handler, Payload: payload, Bytes: bytes},
		wire:  bytes + relHeaderBytes,
	}
	d.nextSeq++
	if len(d.inflight) >= r.window {
		d.backlog = append(d.backlog, pd)
		return
	}
	ep.relTransmit(dst, pd)
}

// relTransmit puts pd on the wire and starts its retransmission timer.
func (ep *EP) relTransmit(dst int, pd *relPending) {
	r := ep.rel
	ep.Node.Send(dst, hRelData, pd.frame, pd.wire)
	pd.rto = r.rto0
	pd.deadline = ep.Node.Now() + pd.rto
	d := &r.dest[dst]
	d.inflight = append(d.inflight, pd)
	r.live++
}

// onRelData receives a reliable data frame: always ack (the previous ack
// may itself have been delayed or the frame duplicated), suppress
// duplicates, and dispatch the inner message exactly once. Acks travel on
// the control plane (Node.SendControl), which the fault plan does not drop
// or duplicate — a deliberate simplification that keeps the protocol's
// recovery cost observable without also modeling ack loss (a lost ack and a
// lost retransmission are indistinguishable to the sender anyway).
func (ep *EP) onRelData(m sim.Message) {
	fr := m.Payload.(*relFrame)
	r := ep.rel
	if r == nil {
		// A reliable frame can only arrive when the machine config enabled
		// the layer, and the config is machine-wide.
		panic("fm: reliable frame received with reliability layer off")
	}
	ep.Node.SendControl(m.From, hRelAck, fr.Seq, r.ackBytes)
	ep.fs.AcksSent++
	if !r.src[m.From].admit(fr.Seq) {
		ep.fs.DupsSuppressed++
		return
	}
	if d := &r.dest[m.From]; d.dead && ep.crashes {
		// A new frame proves the sender alive: a crash run withdraws the
		// declaration, or a barrier that routed around a live peer would
		// wait on it, or leave it waiting, for good.
		d.dead = false
		r.deadCount--
	}
	ep.invoke(sim.Message{
		Arrival: m.Arrival,
		From:    m.From,
		Handler: fr.Handler,
		Payload: fr.Payload,
		Bytes:   fr.Bytes,
	})
}

// onRelAck retires the acked frame.
func (ep *EP) onRelAck(m sim.Message) { ep.retire(m.From, m.Payload.(uint64), false) }

// withdrawProbes retires every unacked probe, as if acked. A barrier calls it
// on leaving: the wait the probes served is over, and one left in flight to
// a peer that has since finished the phase would exhaust its retries and
// declare a live peer unreachable.
func (ep *EP) withdrawProbes() {
	for dst := range ep.rel.dest {
		ep.retire(dst, 0, true)
	}
}

// retire drops dst's in-flight frame with sequence number seq (with probes
// set: every probe instead) and refills the window from the backlog.
func (ep *EP) retire(dst int, seq uint64, probes bool) {
	r := ep.rel
	d := &r.dest[dst]
	if d.dead {
		return
	}
	d.inflight = slices.DeleteFunc(d.inflight, func(pd *relPending) bool {
		if probes && pd.frame.Handler == hProbe || !probes && pd.frame.Seq == seq {
			r.live--
			return true
		}
		return false
	})
	for len(d.backlog) > 0 && len(d.inflight) < r.window {
		pd := d.backlog[0]
		copy(d.backlog, d.backlog[1:])
		d.backlog[len(d.backlog)-1] = nil
		d.backlog = d.backlog[:len(d.backlog)-1]
		ep.relTransmit(dst, pd)
	}
}

// relPump fires every due retransmission timer. Called from Poll and
// WaitAndDispatch, in virtual time, so the retry schedule is a function of
// the simulated clock only.
func (ep *EP) relPump() {
	r := ep.rel
	if r.live == 0 {
		return
	}
	now := ep.Node.Now()
	for dst := range r.dest {
		d := &r.dest[dst]
		if d.dead || len(d.inflight) == 0 {
			continue
		}
		for _, pd := range d.inflight {
			if pd.deadline > now {
				continue
			}
			if pd.attempts >= r.maxRetries {
				ep.declareUnreachable(dst, pd.attempts)
				break
			}
			pd.attempts++
			ep.Node.Send(dst, hRelData, pd.frame, pd.wire)
			ep.fs.Retransmits++
			if ep.trc != nil {
				ep.trc.Event(obs.KRetransmit, ep.Node.Now(), int64(dst), int64(pd.frame.Seq))
			}
			pd.rto *= r.backoff
			pd.deadline = ep.Node.Now() + pd.rto
		}
	}
}

// declareUnreachable gives up on dst: discard its queues, count the loss,
// and record the typed error. Runtimes observe the transition through
// EP.Unreachable and abandon work destined for the dead node.
func (ep *EP) declareUnreachable(dst, attempts int) {
	r := ep.rel
	d := &r.dest[dst]
	lost := len(d.inflight) + len(d.backlog)
	ep.fs.Exhausted += int64(lost)
	r.live -= len(d.inflight)
	d.inflight = nil
	d.backlog = nil
	d.dead = true
	r.deadCount++
	ep.fail(&UnreachableError{From: ep.Node.ID(), To: dst, Attempts: attempts, Lost: lost})
}

// pendingTo counts unfinished frames (in flight plus backlogged) toward one
// destination; probe uses it to decide whether detection traffic is already
// flowing to a silent peer.
func (r *relState) pendingTo(dst int) int {
	d := &r.dest[dst]
	return len(d.inflight) + len(d.backlog)
}

// nextDeadline returns the earliest retransmission deadline across live
// destinations, if any frame is in flight.
func (r *relState) nextDeadline() (sim.Time, bool) {
	if r.live == 0 {
		return 0, false
	}
	min, found := sim.Forever, false
	for i := range r.dest {
		d := &r.dest[i]
		if d.dead {
			continue
		}
		for _, pd := range d.inflight {
			if pd.deadline < min {
				min, found = pd.deadline, true
			}
		}
	}
	return min, found
}

// Quiesce blocks until every reliable frame this endpoint has sent is acked
// or its destination is declared unreachable. The driver calls it once
// before the final barrier — while every peer is still polling and able to
// ack — so no retransmission can outlive its receiver and be mistaken for
// an unreachable destination, and once more after the barrier to collect
// the acks for the barrier traffic itself. A no-op when the layer is off.
func (ep *EP) Quiesce() {
	if ep.rel == nil {
		return
	}
	for ep.rel.live > 0 {
		ep.WaitAndDispatch()
	}
}
