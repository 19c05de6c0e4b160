// Package fm is a hand-rolled active-message layer in the style of Illinois
// Fast Messages (FM), the messaging substrate the paper used on the CRAY
// T3D. A message names a handler; handlers run on the receiving node when it
// polls the network. The package also provides the barrier the applications
// need between phases, built from the same primitives, which routes around
// nodes declared dead.
//
// When the machine config enables fault injection with message loss or
// duplication, endpoints transparently run a reliability protocol (send
// windows, acks, timeout-driven retransmission, duplicate suppression — see
// reliable.go) underneath the same Send/Poll surface.
package fm

import (
	"fmt"
	"sync/atomic"

	"dpa/internal/machine"
	"dpa/internal/obs"
	"dpa/internal/sim"
)

// Handler processes one received message on the receiving node's endpoint.
type Handler func(ep *EP, m sim.Message)

// Net holds the handler table shared by all nodes of one SPMD program.
// Handlers must be registered before the machine runs.
type Net struct {
	handlers []Handler
	sealed   atomic.Bool // set by every node's NewEP, possibly concurrently
}

// Reserved internal handler indices.
const (
	hBarrierArrive = iota
	hBarrierRelease
	hRelData
	hRelAck
	hProbe
	numInternal
)

// NewNet returns a Net with the internal barrier handlers installed.
func NewNet() *Net {
	n := &Net{handlers: make([]Handler, numInternal)}
	n.handlers[hBarrierArrive] = (*EP).onBarrierArrive
	n.handlers[hBarrierRelease] = (*EP).onBarrierRelease
	n.handlers[hRelData] = (*EP).onRelData
	n.handlers[hRelAck] = (*EP).onRelAck
	n.handlers[hProbe] = (*EP).onProbe
	return n
}

// Register adds a handler and returns its id.
//
// Panic contract (intentional): Register panics once any endpoint exists.
// Handler ids are protocol constants shared by every node of the SPMD
// program; registering after some node has started running would give nodes
// diverging handler tables, which no error return could meaningfully
// recover from. Registration happens in package-level protocol setup (see
// driver.NewProtos), so a late Register is always a programming bug.
func (n *Net) Register(h Handler) int {
	if n.sealed.Load() {
		panic("fm: Register after endpoints created")
	}
	n.handlers = append(n.handlers, h)
	return len(n.handlers) - 1
}

// onBarrierArrive records that m.From has entered the barrier whose ordinal
// the frame carries (and, transitively, every barrier before it). A tree
// child's ordinal goes into its fixed slot; any other sender reaches this
// node only by routing around dead nodes, so the map that holds those is made
// on the first such arrive and a fault-free run never builds it. An arrive
// for a barrier this node has already left comes from a node whose first
// receiver forwarded it and then died: answer it with the release directly.
func (ep *EP) onBarrierArrive(m sim.Message) {
	k := m.Payload.(int)
	if i := m.From - firstChild(ep.Node.ID()); i >= 0 && i < fanIn {
		ep.kidAt[i] = max(ep.kidAt[i], k)
	} else {
		if ep.adoptedAt == nil {
			ep.adoptedAt = make(map[int]int)
		}
		ep.adoptedAt[m.From] = max(ep.adoptedAt[m.From], k)
	}
	if k <= ep.barrierAt {
		ep.Send(m.From, hBarrierRelease, k, barrierBytes)
	}
}

// onBarrierRelease records the release of the barrier the frame names. A
// node can be released twice for one barrier when it routed around a parent
// that was slow rather than dead; the ordinal makes the second a no-op.
func (ep *EP) onBarrierRelease(m sim.Message) {
	ep.releasedAt = max(ep.releasedAt, m.Payload.(int))
}

// onProbe is the liveness-probe handler. The frame's main job is to exist:
// a reliable frame to a dead peer goes unacked and exhausts its retries,
// which is exactly the detection signal a waiting barrier needs, and the
// reliability layer acks it like any data frame. A probe from a node waiting
// for release(k) carries k; if this node has already left barrier k, answer
// with the release on the control plane, like the ack. That covers a release
// skipped because this node had declared the prober dead, and a duplicate
// that finds the prober gone costs nothing.
func (ep *EP) onProbe(m sim.Message) {
	if k := m.Payload.(int); k > 0 && k <= ep.barrierAt {
		ep.Node.SendControl(m.From, hBarrierRelease, k, barrierBytes)
	}
}

// EP is a node's endpoint: its handle on the network. Ctx carries
// runtime-specific per-node state for handlers to use.
type EP struct {
	Node *machine.Node
	net  *Net
	Ctx  any

	// rel is the reliability protocol state; nil when the layer is off
	// (the default), which keeps the fault-free message path untouched.
	rel *relState
	// fs accumulates protocol-level fault counters (merged into the run).
	fs FaultStats

	// errs records degradation errors (unreachable destinations, unknown
	// handlers) in program order; capped, with the overflow counted.
	errs        []error
	errsDropped int

	// trc is the node's observability handle (nil when tracing is off),
	// cached at endpoint construction so emission sites pay one nil check.
	trc *obs.NodeTrace

	// Barrier state, as ordinals: barrierAt counts the barriers this node
	// has left, releasedAt is the highest one it has been released from (or,
	// as the acting root, released itself). kidAt holds the highest
	// ordinal each tree child's arrive reported; adoptedAt the same for any
	// other sender, nil until one arrives.
	barrierAt  int
	releasedAt int
	kidAt      [fanIn]int
	adoptedAt  map[int]int

	// crashes is set when the fault config schedules permanent crashes
	// (FaultConfig.CrashActive): waits on a silent peer then probe it, so a
	// peer that died after acking everything is still detected.
	crashes bool
}

// NewEP creates the endpoint for a node. Call once per node inside the SPMD
// main function. If the machine config requires the reliability layer
// (message loss or duplication injected, or explicitly requested), the
// endpoint enables it transparently.
func NewEP(net *Net, n *machine.Node) *EP {
	net.sealed.Store(true)
	ep := &EP{Node: n, net: net}
	ep.Reset()
	return ep
}

// Reset returns the endpoint to the state NewEP builds, for another phase on
// the same node of a machine that is run again (machine.Machine.Run): Ctx,
// counters, errors, reliability and barrier state start over. Call it
// inside the SPMD main function, after the machine has started the phase.
func (ep *EP) Reset() {
	n := ep.Node
	*ep = EP{Node: n, net: ep.net, trc: n.Obs()}
	fc := &n.Cfg().Faults
	if fc.NeedsReliability() {
		ep.rel = newRelState(fc, n.N())
	}
	ep.crashes = fc.CrashActive()
}

// maxRecordedErrs caps the errors kept per endpoint; the rest are counted
// in errsDropped so a fault storm cannot accumulate unbounded error chains.
const maxRecordedErrs = 8

// fail records a degradation error on the endpoint.
func (ep *EP) fail(err error) {
	if len(ep.errs) < maxRecordedErrs {
		ep.errs = append(ep.errs, err)
		return
	}
	ep.errsDropped++
}

// Err returns the endpoint's recorded degradation errors joined (nil for a
// clean run). The result is deterministic: errors are recorded in the
// node's program order.
func (ep *EP) Err() error {
	if len(ep.errs) == 0 {
		return nil
	}
	err := joinErrors(ep.errs)
	if ep.errsDropped > 0 {
		err = fmt.Errorf("%w (and %d more errors)", err, ep.errsDropped)
	}
	return err
}

// FaultStats returns the endpoint's protocol-level fault counters.
func (ep *EP) FaultStats() FaultStats { return ep.fs }

// dispatch runs handlers for the given messages, charging handler cost.
//
// ms is the node's reusable drain buffer (see sim.Proc.Poll): it is only
// valid until the next Poll/WaitMessage on this node. dispatch consumes it
// synchronously and never retains it, and handlers must not re-enter
// Poll/WaitAndDispatch — a nested drain would overwrite the buffer being
// iterated. The registered handlers keep that rule today: they only Send,
// mutate runtime tables, or push ready threads; none of them drains.
func (ep *EP) dispatch(ms []sim.Message) int {
	for _, m := range ms {
		ep.invoke(m)
	}
	return len(ms)
}

// invoke runs one message's handler. A message naming an unregistered
// handler is counted and recorded as a *HandlerError rather than killing
// the run: under fault injection (and in a real system) a malformed message
// must not be fatal, and the error surfaces through the run result.
func (ep *EP) invoke(m sim.Message) {
	if m.Handler < 0 || m.Handler >= len(ep.net.handlers) {
		ep.fs.UnknownHandler++
		ep.fail(&HandlerError{Node: ep.Node.ID(), From: m.From, Handler: m.Handler})
		return
	}
	ep.Node.Charge(sim.HandlerOv, ep.Node.Cfg().HandlerCost)
	ep.net.handlers[m.Handler](ep, m)
}

// Poll checks the network once and dispatches any arrived messages,
// returning how many were handled. With the reliability layer on it also
// fires any due retransmission timers.
func (ep *EP) Poll() int {
	n := ep.dispatch(ep.Node.Poll())
	if ep.rel != nil {
		ep.relPump()
	}
	return n
}

// WaitAndDispatch blocks until at least one message arrives (idle time),
// then dispatches everything that has arrived. With reliable frames in
// flight the wait is bounded by the next retransmission deadline, so
// recovery proceeds even when the network has gone silent.
func (ep *EP) WaitAndDispatch() int {
	if ep.rel != nil {
		if dl, ok := ep.rel.nextDeadline(); ok {
			n := ep.dispatch(ep.Node.WaitMessageUntil(dl))
			ep.relPump()
			return n
		}
	}
	n := ep.dispatch(ep.Node.WaitMessage())
	if ep.rel != nil {
		ep.relPump()
	}
	return n
}

// WaitBounded is WaitAndDispatch for a wait that only a peer's frame can
// end, such as a fetch reply or a barrier release, and reports whether the
// wait should give up. In crash mode the waits keep probing live peers, so
// a wait on a frame that no peer will ever send would never end (nor would
// the engine see a deadlock): once bounded waits have spent longer than the
// reliability knobs' patience since the last frame applied from any peer
// (probes aside), it records ErrNoProgress and returns true. Outside crash
// mode a silent wait has no timer left and ends in a deadlock instead, so
// it is plain WaitAndDispatch.
func (ep *EP) WaitBounded() bool {
	if !ep.crashes {
		ep.WaitAndDispatch()
		return false
	}
	r, t := ep.rel, ep.Node.Now()
	ep.WaitAndDispatch()
	if r.heard {
		r.heard, r.silent = false, 0
		return false
	}
	if r.silent += ep.Node.Now() - t; r.silent <= r.patience {
		return false
	}
	ep.fail(fmt.Errorf("fm: node %d: no frame from any peer in %d cycles of waiting: %w",
		ep.Node.ID(), r.silent, ErrNoProgress))
	r.silent = 0
	return true
}

// Send sends an active message to dst. With the reliability layer on,
// cross-node messages travel as reliable frames (windowed, acked,
// retransmitted); sends to a destination already declared unreachable are
// dropped and counted.
func (ep *EP) Send(dst, handler int, payload any, bytes int) {
	if ep.rel != nil && dst != ep.Node.ID() {
		ep.relSend(dst, handler, payload, bytes)
		return
	}
	ep.Node.Send(dst, handler, payload, bytes)
}

// Unreachable reports whether dst has been declared unreachable (its retry
// budget was exhausted). Runtimes consult it to abandon work destined for
// dead nodes instead of waiting forever.
func (ep *EP) Unreachable(dst int) bool {
	return ep.rel != nil && ep.rel.dest[dst].dead
}

// Degraded reports whether any destination is unreachable from this node.
func (ep *EP) Degraded() bool { return ep.rel != nil && ep.rel.deadCount > 0 }

// fanIn is the arity of the combining tree the barrier walks: node i's
// parent is (i-1)/fanIn and its children are fanIn·i+1 … fanIn·i+fanIn, so
// the shape is computed from the node id and costs no per-endpoint storage.
// A level costs its parent about fanIn receives on the way up and fanIn sends
// on the way down, and there are log_fanIn N levels. Swept on em3d1024_static
// (1024 nodes, one barrier per phase): fan-in 2 / 3 / 4 / 8 / 16 gave
// 2.36 / 2.24 / 2.20 / 2.24 / 2.39 ms — too flat around the minimum for a
// knob to buy anything, so it is a constant.
const fanIn = 4

func treeParent(id int) int { return (id - 1) / fanIn }
func firstChild(id int) int { return fanIn*id + 1 }

// barrierBytes is the modeled size of an arrive or release frame, whose
// payload is the barrier's ordinal.
const barrierBytes = 4

// Barrier blocks until every live node has entered the same barrier. Nodes
// form a fanIn-ary combining tree: a node sends one arrive to its parent once
// its children have arrived, the root turns the last arrive into a release,
// and each node forwards the release to its children — 2(N−1) messages and
// O(fanIn·log N) cycles at any one node. While waiting, the node keeps
// dispatching handlers, so it continues to serve remote requests — this is
// how nodes that finish their local work early stay responsive (the paper's
// runtimes behave the same way under polling).
//
// The same walk runs under faults; it differs only where this node has
// declared a peer Unreachable. Its wait set (see walk) replaces a dead child
// by that child's children, and its arrive goes to the nearest live target
// (see upward); with no target left it is the acting root. A node stops
// waiting on a peer only when that peer is unreachable, and probes the peers
// it waits on when crashes are armed, so the wait stays bounded by
// retransmission deadlines, and gives up past the progress bound (see
// WaitBounded). A barrier that routed around dead nodes records one
// *CollectiveError counting them.
func (ep *EP) Barrier() {
	k, id := ep.barrierAt+1, ep.Node.ID()
	sent := -1
	up, skipped, root := 0, 0, 0
	for {
		up, skipped = ep.upward()
		root = id
		if up < 0 {
			root = 0 // the acting root waits on node 0's wait set
		}
		if waiting, _ := ep.walk(root, k, false); waiting == 0 {
			if up < 0 {
				ep.releasedAt = k
			} else if up != sent {
				ep.Send(up, hBarrierArrive, k, barrierBytes)
				sent = up
			}
			if ep.releasedAt >= k {
				break
			}
			ep.probe(up, k)
		}
		if ep.WaitBounded() {
			break // leave degraded: ErrNoProgress is recorded
		}
	}
	if ep.crashes {
		ep.withdrawProbes()
	}
	_, dead := ep.walk(root, k, true)
	if missing := skipped + dead; missing > 0 {
		ep.fail(&CollectiveError{Op: "barrier", Node: id, Missing: missing})
	}
	ep.barrierAt = k
	ep.traceBarrier()
}

// walk visits the wait set of barrier k below root, in tree-child index
// order: a child whose arrive(k) is in covers its whole subtree; a child this
// node has declared Unreachable — or this node itself, when it is the acting
// root walking node 0's set — is replaced by its own children, recursively;
// any other child is waited on, and probed. It returns how many members are
// still waited on and how many dead ones above this node's id it replaced
// (upward counts those below). With release set it instead sends release(k)
// to every member that arrived and is not unreachable.
func (ep *EP) walk(root, k int, release bool) (waiting, dead int) {
	self, n := ep.Node.ID(), ep.Node.N()
	for c := firstChild(root); c < min(firstChild(root)+fanIn, n); c++ {
		switch {
		case ep.arrived(c, k):
			if release && !ep.Unreachable(c) {
				ep.Send(c, hBarrierRelease, k, barrierBytes)
			}
		case c == self || ep.Unreachable(c):
			if c > self {
				dead++
			}
			w, d := ep.walk(c, k, release)
			waiting, dead = waiting+w, dead+d
		default:
			waiting++
			ep.probe(c, 0)
		}
	}
	return waiting, dead
}

// arrived reports whether c's arrive for barrier k (or a later one) is in.
func (ep *EP) arrived(c, k int) bool {
	if i := c - firstChild(ep.Node.ID()); i >= 0 && i < fanIn {
		return ep.kidAt[i] >= k
	}
	return ep.adoptedAt[c] >= k
}

// upward returns where this node's arrive goes: the nearest ancestor it has
// not declared unreachable, else the lowest id below its own it has not, else
// -1 (it is the acting root). skipped counts the distinct dead nodes passed
// over on the way.
func (ep *EP) upward() (target, skipped int) {
	id := ep.Node.ID()
	for a := id; a > 0; skipped++ {
		if a = treeParent(a); !ep.Unreachable(a) {
			return a, skipped
		}
	}
	for target = 0; target < id; target++ {
		if !ep.Unreachable(target) {
			break
		}
	}
	if target == id {
		return -1, id // every lower id is dead
	}
	// Dead: every id below target, and the ancestors above it.
	skipped = target
	for a := treeParent(id); a > target; a = treeParent(a) {
		skipped++
	}
	return target, skipped
}

// probeBytes is the modeled payload size of one liveness probe.
const probeBytes = 4

// probe keeps detection traffic flowing toward dst when crashes are armed:
// when nothing is in flight or backlogged to it, send one reliable probe
// frame, carrying the barrier whose release the sender awaits from dst (0:
// none). Either the ack comes back (dst is alive — the waiter keeps waiting
// for its real message) or the probe's retries exhaust and dst is declared
// unreachable. Without it, a peer that crashes after acking everything would
// leave the waiting node with no retransmission deadline and therefore no
// way to notice the death. Without crashes a silent peer is just slow, and
// probing would perturb fault-free and loss-only runs.
func (ep *EP) probe(dst, k int) {
	if !ep.crashes || ep.Unreachable(dst) || ep.rel.pendingTo(dst) > 0 {
		return
	}
	ep.fs.Probes++
	ep.relSend(dst, hProbe, k, probeBytes)
}

// ProbeOwner is probe for runtimes waiting on application replies from dst
// (e.g. draining outstanding fetches), so they can abandon a dead owner
// instead of blocking forever.
func (ep *EP) ProbeOwner(dst int) { ep.probe(dst, 0) }

// traceBarrier records a completed barrier on this node's trace: the stamp is
// the node's local completion time, the argument the barrier ordinal. Emitted
// from the fm layer (not the engine) so the record is identical under both
// engines — barrier completion is a program-order fact, engine epochs are not.
func (ep *EP) traceBarrier() {
	if ep.trc != nil {
		ep.trc.Event(obs.KBarrier, ep.Node.Now(), int64(ep.barrierAt), 0)
	}
}
