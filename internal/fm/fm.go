// Package fm is a hand-rolled active-message layer in the style of Illinois
// Fast Messages (FM), the messaging substrate the paper used on the CRAY
// T3D. A message names a handler; handlers run on the receiving node when it
// polls the network. The package also provides the collective operations the
// applications need (barrier, all-reduce) built from the same primitives.
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
	hReduceArrive
	hReduceResult
	hRelData
	hRelAck
	hProbe
	numInternal
)

// NewNet returns a Net with the internal collective handlers installed.
func NewNet() *Net {
	n := &Net{handlers: make([]Handler, numInternal)}
	n.handlers[hBarrierArrive] = (*EP).onBarrierArrive
	n.handlers[hBarrierRelease] = (*EP).onBarrierRelease
	n.handlers[hReduceArrive] = (*EP).onReduceArrive
	n.handlers[hReduceResult] = (*EP).onReduceResult
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

func (ep *EP) onBarrierArrive(m sim.Message) {
	ep.barrierCount++
	if ep.barrierSeen != nil {
		ep.barrierSeen[m.From]++
	}
}
func (ep *EP) onBarrierRelease(m sim.Message) { ep.barrierEpoch++ }

// onReduceArrive files a partial sum. On the tree it goes into the sending
// child's own slot, so the parent can add the partials in child-index order
// whatever order they arrived in; the hub (live-set) path accumulates as the
// arrivals come and tallies them per peer.
func (ep *EP) onReduceArrive(m sim.Message) {
	v := m.Payload.(float64)
	ep.reduceCount++
	if !ep.liveSet {
		ep.reduceSlot[m.From-firstChild(ep.Node.ID())] = v
		return
	}
	ep.reduceAcc += v
	if ep.reduceSeen != nil {
		ep.reduceSeen[m.From]++
	}
}

// onProbe is the liveness-probe handler: the frame's only job is to exist —
// a reliable frame to a dead peer goes unacked and exhausts its retries,
// which is exactly the detection signal the live-set collectives need. The
// reliability layer acks it like any data frame; there is nothing to do.
func (ep *EP) onProbe(m sim.Message) {}

func (ep *EP) onReduceResult(m sim.Message) {
	ep.reduceResult = m.Payload.(float64)
	ep.reduceDone = true
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

	// Collective state. The Count fields hold arrivals not yet consumed by
	// a completed collective: from this node's tree children, or, on the
	// live-set hub, from every peer (node 0 only).
	barrierCount int
	barrierEpoch int // releases seen
	barrierAt    int // barriers this node has entered

	reduceCount  int
	reduceSlot   [fanIn]float64 // children's partial sums, by child index
	reduceResult float64
	reduceDone   bool

	// Live-set collective state, enabled only when the fault config
	// schedules permanent crashes (FaultConfig.CrashActive): collectives
	// then run the hub protocol (everyone arrives at node 0), track arrivals
	// per peer and shrink to the surviving set instead of failing wholesale
	// at the first dead destination. barrierSeen and reduceSeen count
	// per-peer arrivals on node 0, reduceAcc is its running sum in arrival
	// order; reduceAt counts this node's completed reductions (the
	// reduce-side analogue of barrierAt).
	liveSet     bool
	reduceAcc   float64
	barrierSeen []int
	reduceSeen  []int
	reduceAt    int
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
// counters, errors, reliability and collective state start over. Call it
// inside the SPMD main function, after the machine has started the phase.
func (ep *EP) Reset() {
	n := ep.Node
	*ep = EP{Node: n, net: ep.net, trc: n.Obs()}
	fc := &n.Cfg().Faults
	if fc.NeedsReliability() {
		ep.rel = newRelState(fc, n.N())
	}
	if fc.CrashActive() {
		ep.liveSet = true
		if n.ID() == 0 {
			ep.barrierSeen = make([]int, n.N())
			ep.reduceSeen = make([]int, n.N())
		}
	}
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

// fanIn is the arity of the combining tree the collectives walk: node i's
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

// treeChildren returns how many children this node has in the tree.
func (ep *EP) treeChildren() int {
	return min(max(ep.Node.N()-firstChild(ep.Node.ID()), 0), fanIn)
}

// awaitChildren is the upward half of a collective at one node: dispatch
// until every child's arrive has been counted, then consume them. It returns
// how many children it gave up on because this endpoint is Degraded.
func (ep *EP) awaitChildren(count *int) (missing int) {
	kids := ep.treeChildren()
	for *count < kids && !ep.Degraded() {
		ep.WaitAndDispatch()
	}
	missing = max(kids-*count, 0)
	*count = max(*count-kids, 0)
	return missing
}

// sendChildren is the downward half: forward the release (or the reduced
// total) to every child.
func (ep *EP) sendChildren(handler int, payload any, bytes int) {
	first := firstChild(ep.Node.ID())
	for c := first; c < first+ep.treeChildren(); c++ {
		ep.Send(c, handler, payload, bytes)
	}
}

// degraded records a collective that completed without hearing from
// everyone it waits on (missing children, plus the parent's release).
func (ep *EP) degraded(op string, missing int) {
	if missing > 0 {
		ep.fail(&CollectiveError{Op: op, Node: ep.Node.ID(), Missing: missing})
	}
}

// Barrier blocks until every node has entered the same barrier. Nodes form a
// fanIn-ary combining tree: a node sends one arrive to its parent once every
// child has arrived, the root turns the last arrive into a release, and each
// node forwards the release to its children — 2(N−1) messages and
// O(fanIn·log N) cycles at any one node. While waiting, the node keeps
// dispatching handlers, so it continues to serve remote requests — this is
// how nodes that finish their local work early stay responsive (the paper's
// runtimes behave the same way under polling).
//
// Under fault injection the barrier degrades instead of hanging: a node
// whose sends have exhausted their retries stops waiting and records a
// *CollectiveError naming itself, but still sends its arrive and forwards
// the release, so its subtree is released rather than hung. When the fault
// plan schedules crashes the barrier is barrierLiveSet's hub protocol
// instead.
func (ep *EP) Barrier() {
	ep.barrierAt++
	n := ep.Node.N()
	if n == 1 {
		ep.barrierEpoch++
		ep.traceBarrier()
		return
	}
	if ep.liveSet {
		ep.barrierLiveSet(n)
		return
	}
	missing := ep.awaitChildren(&ep.barrierCount)
	if id := ep.Node.ID(); id == 0 {
		ep.barrierEpoch++
	} else {
		ep.Send(treeParent(id), hBarrierArrive, nil, 4)
		for ep.barrierEpoch < ep.barrierAt && !ep.Degraded() {
			ep.WaitAndDispatch()
		}
		if ep.barrierEpoch < ep.barrierAt {
			missing++
			ep.barrierEpoch = ep.barrierAt
		}
	}
	ep.sendChildren(hBarrierRelease, nil, 4)
	ep.degraded("barrier", missing)
	ep.traceBarrier()
}

// barrierLiveSet is the crash-tolerant barrier (see EP.liveSet): node 0
// waits for each peer individually until it has either arrived or been
// declared unreachable, probing silent live peers so the wait stays bounded
// by retransmission deadlines, then releases the survivors. A dead peer
// shrinks the barrier instead of aborting it.
func (ep *EP) barrierLiveSet(n int) {
	if ep.Node.ID() == 0 {
		for {
			missing := false
			for j := 1; j < n; j++ {
				if ep.barrierSeen[j] < ep.barrierAt && !ep.Unreachable(j) {
					missing = true
					ep.probe(j)
				}
			}
			if !missing {
				break
			}
			ep.WaitAndDispatch()
		}
		dead, arrived := 0, 0
		for j := 1; j < n; j++ {
			if ep.barrierSeen[j] < ep.barrierAt {
				dead++
			} else {
				arrived++
			}
		}
		ep.barrierCount -= arrived
		if dead > 0 {
			ep.fail(&CollectiveError{Op: "barrier", Node: 0, Missing: dead})
		}
		for j := 1; j < n; j++ {
			if !ep.Unreachable(j) {
				ep.Send(j, hBarrierRelease, nil, 4)
			}
		}
		ep.barrierEpoch++
		ep.traceBarrier()
		return
	}
	ep.Send(0, hBarrierArrive, nil, 4)
	for ep.barrierEpoch < ep.barrierAt && !ep.Unreachable(0) {
		ep.probe(0)
		ep.WaitAndDispatch()
	}
	if ep.barrierEpoch < ep.barrierAt {
		ep.fail(&CollectiveError{Op: "barrier", Node: ep.Node.ID(), Missing: 1})
		ep.barrierEpoch = ep.barrierAt
	}
	ep.traceBarrier()
}

// probeBytes is the modeled payload size of one liveness probe.
const probeBytes = 4

// probe keeps detection traffic flowing toward dst: when nothing is in
// flight or backlogged to it, send one reliable no-op frame. Either the ack
// comes back (dst is alive — the collective keeps waiting for its real
// arrival) or the probe's retries exhaust and dst is declared unreachable.
// Without it, a peer that crashes after acking everything would leave the
// waiting node with no retransmission deadline and therefore no way to
// notice the death.
func (ep *EP) probe(dst int) {
	if ep.rel == nil || ep.Unreachable(dst) || ep.rel.pendingTo(dst) > 0 {
		return
	}
	ep.fs.Probes++
	ep.relSend(dst, hProbe, nil, probeBytes)
}

// ProbeOwner keeps liveness-detection traffic flowing toward dst while the
// caller waits on application replies from it (e.g. a runtime draining
// outstanding fetches). A peer that crashes after acking every reliable
// frame leaves the waiter with no retransmission deadline; the probe
// restores one, so the retry cap can declare the death and the waiter can
// abandon instead of blocking forever. A no-op unless the fault plan
// schedules crashes — without them a silent peer is just slow, and probing
// would perturb fault-free and loss-only runs.
func (ep *EP) ProbeOwner(dst int) {
	if ep.liveSet {
		ep.probe(dst)
	}
}

// traceBarrier records a completed barrier on this node's trace: the stamp is
// the node's local completion time, the argument the barrier ordinal. Emitted
// from the fm layer (not the engine) so the record is identical under both
// engines — barrier completion is a program-order fact, engine epochs are not.
func (ep *EP) traceBarrier() {
	if ep.trc != nil {
		ep.trc.Event(obs.KBarrier, ep.Node.Now(), int64(ep.barrierAt), 0)
	}
}

// AllReduceSum computes the global sum of v across all nodes. It is the
// barrier's tree walk with an 8-byte payload: partial sums ride the arrives
// and the total rides the releases. Each node adds its own value first and
// then its children's partials in child-index order, so the result is a pure
// function of the inputs and the tree shape — the same bits on every node,
// under either engine, whatever order the arrives landed in. Like Barrier it
// keeps dispatching while waiting, and a Degraded endpoint stops waiting,
// records the failure and passes on the partial sum it has. Crash runs use
// allReduceLiveSet's hub protocol instead.
func (ep *EP) AllReduceSum(v float64) float64 {
	n := ep.Node.N()
	if n == 1 {
		return v
	}
	if ep.liveSet {
		return ep.allReduceLiveSet(n, v)
	}
	missing := ep.awaitChildren(&ep.reduceCount)
	for i := range ep.reduceSlot[:ep.treeChildren()] {
		v += ep.reduceSlot[i]
		ep.reduceSlot[i] = 0 // a child given up on contributes nothing next time
	}
	if id := ep.Node.ID(); id != 0 {
		ep.Send(treeParent(id), hReduceArrive, v, 8)
		for !ep.reduceDone && !ep.Degraded() {
			ep.WaitAndDispatch()
		}
		if ep.reduceDone {
			v = ep.reduceResult
			ep.reduceDone = false
		} else {
			missing++
		}
	}
	ep.sendChildren(hReduceResult, v, 8)
	ep.degraded("allreduce", missing)
	return v
}

// allReduceLiveSet is the crash-tolerant reduction (see EP.liveSet): the
// sum shrinks to the contributions of nodes still alive, mirroring
// barrierLiveSet's per-peer wait and probing.
func (ep *EP) allReduceLiveSet(n int, v float64) float64 {
	ep.reduceAt++
	if ep.Node.ID() == 0 {
		for {
			missing := false
			for j := 1; j < n; j++ {
				if ep.reduceSeen[j] < ep.reduceAt && !ep.Unreachable(j) {
					missing = true
					ep.probe(j)
				}
			}
			if !missing {
				break
			}
			ep.WaitAndDispatch()
		}
		dead, arrived := 0, 0
		for j := 1; j < n; j++ {
			if ep.reduceSeen[j] < ep.reduceAt {
				dead++
			} else {
				arrived++
			}
		}
		ep.reduceCount -= arrived
		if dead > 0 {
			ep.fail(&CollectiveError{Op: "allreduce", Node: 0, Missing: dead})
		}
		total := ep.reduceAcc + v
		ep.reduceAcc = 0
		for j := 1; j < n; j++ {
			if !ep.Unreachable(j) {
				ep.Send(j, hReduceResult, total, 8)
			}
		}
		return total
	}
	ep.Send(0, hReduceArrive, v, 8)
	for !ep.reduceDone && !ep.Unreachable(0) {
		ep.probe(0)
		ep.WaitAndDispatch()
	}
	if !ep.reduceDone {
		ep.fail(&CollectiveError{Op: "allreduce", Node: ep.Node.ID(), Missing: 1})
		return v
	}
	ep.reduceDone = false
	return ep.reduceResult
}
