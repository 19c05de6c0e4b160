// Package obs is the structured observability layer of the simulator: a
// deterministic, virtual-time event tracer and a metrics registry.
//
// # Event tracing
//
// A Tracer holds one NodeTrace per simulated node. Each NodeTrace keeps two
// bounded ring buffers (grown on demand up to their capacity, so a quiet node
// on a large machine costs almost nothing):
//
//   - charge spans: (category, start, end) intervals mirroring every clock
//     advance, coalesced so that adjacent same-category intervals merge into
//     one span. Coalescing is what makes the span stream engine-independent:
//     the parallel engine advances idle waits in epoch-bounded chunks where
//     the sequential engine advances in one step, but the merged spans are
//     identical.
//   - events: discrete records (thread execution, fetch request/serve/reply,
//     strip boundary, adaptation decision, injected fault, retransmission,
//     barrier) stamped with simulated time.
//
// Everything recorded is a pure function of simulated-time state: a node's
// program order fixes its ring contents, so traces are bit-identical across
// the two engines, across repeats, and under seeded fault injection. When
// the rings overflow, the oldest records are dropped (and counted) — also
// deterministically, since the push sequence itself is deterministic.
//
// Recording is strictly opt-in: a nil *Tracer (or nil *NodeTrace handle)
// means every hook in sim/machine/fm/core compiles down to a nil check, and
// the steady-state message path stays allocation-free.
//
// Multi-phase runs share one Tracer: the machine layer advances the phase
// offset by each phase's makespan, so a trace of several back-to-back phases
// renders on one contiguous virtual timeline.
//
// The exporter (chrome.go) writes Chrome trace_event JSON, loadable directly
// in Perfetto or chrome://tracing: one process per node, one track per charge
// category plus tracks for thread executions and discrete events.
package obs

import (
	"fmt"

	"dpa/internal/sim"
)

// Kind classifies a discrete trace event.
type Kind uint8

const (
	// KThread is one thread execution: Arg1 is the pointer key the thread
	// was labeled with, Dur its execution time (dispatch to return).
	KThread Kind = iota
	// KFetchReq records a pointer leaving in a request message: Arg1 is the
	// pointer key, Arg2 the owner node it is requested from.
	KFetchReq
	// KFetchServe records an owner serving one request batch: Arg1 is the
	// requesting node, Arg2 the batch size in pointers.
	KFetchServe
	// KFetchReply records a pointer landing in a reply: Arg1 is the pointer
	// key, Arg2 the owner that served it.
	KFetchReply
	// KStrip is a strip boundary in a strip-mined loop: Arg1 is the first
	// admitted top-level index, Arg2 the strip size just completed.
	KStrip
	// KAdapt is a planned-mode strip-size change: Arg1 the new strip size,
	// Arg2 the top-level loop index.
	KAdapt
	// KFault is an injected fault: Arg1 a Fault* code, Arg2 the detail
	// (destination for drop/dup, extra cycles for jitter/stall).
	KFault
	// KRetransmit is a reliability-layer retransmission: Arg1 the
	// destination, Arg2 the frame sequence number.
	KRetransmit
	// KBarrier is a completed barrier: Arg1 the barrier ordinal on this node.
	KBarrier
	// KPlan is a predictive planner strip decision: Arg1 the installed strip
	// size, Arg2 the top-level loop index. Emitted alongside KAdapt (which
	// fires only when the size actually changes) so planner runs record
	// every boundary decision.
	KPlan
	// KPrior is a planner warm start from a cross-phase prior: Arg1 the
	// strip size seeded from the prior's signals, Arg2 the top-level loop
	// index.
	KPrior
	// KShape is an affinity-shaped loop: Arg1 the number of owner-major
	// runs the shaped order emits, Arg2 the top-level loop index.
	KShape
	// NumKinds is the number of event kinds.
	NumKinds
)

// String returns the event kind's wire name (used in exported traces).
func (k Kind) String() string {
	switch k {
	case KThread:
		return "thread"
	case KFetchReq:
		return "fetch_req"
	case KFetchServe:
		return "fetch_serve"
	case KFetchReply:
		return "fetch_reply"
	case KStrip:
		return "strip"
	case KAdapt:
		return "adapt"
	case KFault:
		return "fault"
	case KRetransmit:
		return "retransmit"
	case KBarrier:
		return "barrier"
	case KPlan:
		return "plan"
	case KPrior:
		return "prior"
	case KShape:
		return "shape"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault codes carried in KFault's Arg1.
const (
	FaultDrop int64 = iota
	FaultDup
	FaultJitter
	FaultStall
	FaultCrash
)

// Event is one discrete trace record on a node's timeline.
type Event struct {
	Time sim.Time // virtual timestamp (phase offset already applied)
	Dur  sim.Time // duration for span-like events (KThread); 0 for instants
	Kind Kind
	Arg1 int64
	Arg2 int64
}

// Span is one coalesced charge interval on a node's timeline.
type Span struct {
	Start, End sim.Time
	Cat        sim.Category
}

// ring is a bounded FIFO that overwrites its oldest entry when full, counting
// the overwrites. Storage grows geometrically with the entries pushed until it
// reaches max; until then nothing has been overwritten, so head is 0 and the
// entries are buf[:n] in push order.
type ring[T any] struct {
	buf     []T
	max     int // capacity
	head    int // index of the oldest entry
	n       int
	dropped int64
}

// ringMin is a ring's first allocation, in entries.
const ringMin = 64

func (r *ring[T]) push(v T) {
	if r.n < r.max {
		if r.n == cap(r.buf) {
			// Double, never past max: a full ring holds exactly max entries.
			c := min(max(2*r.n, ringMin), r.max)
			r.buf = append(make([]T, 0, c), r.buf...)
		}
		r.buf = append(r.buf, v)
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.max
	r.dropped++
}

// last returns a pointer to the most recently pushed entry (nil when empty).
func (r *ring[T]) last() *T {
	if r.n == 0 {
		return nil
	}
	return &r.buf[(r.head+r.n-1)%len(r.buf)]
}

// at returns the i-th oldest entry, 0 <= i < r.n.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) len() int { return r.n }

// NodeTrace is one node's recording handle. All methods are called from the
// node's own simulation goroutine only, in the node's program order, so no
// locking is needed under either engine.
type NodeTrace struct {
	node   int
	base   sim.Time // phase offset added to every recorded timestamp
	events ring[Event]
	spans  ring[Span]
}

// Event records a discrete instant event at virtual time `at` (node-local;
// the phase offset is applied here).
func (t *NodeTrace) Event(k Kind, at sim.Time, arg1, arg2 int64) {
	t.events.push(Event{Time: t.base + at, Kind: k, Arg1: arg1, Arg2: arg2})
}

// EventDur records a span-like event covering [at, at+dur).
func (t *NodeTrace) EventDur(k Kind, at, dur sim.Time, arg1, arg2 int64) {
	t.events.push(Event{Time: t.base + at, Dur: dur, Kind: k, Arg1: arg1, Arg2: arg2})
}

// Span records a charge interval [start, end) of category cat, coalescing it
// with the previous span when the two are adjacent and same-category. The
// machine layer feeds it from the sim charge hook.
func (t *NodeTrace) Span(cat sim.Category, start, end sim.Time) {
	if end <= start {
		return
	}
	start += t.base
	end += t.base
	if last := t.spans.last(); last != nil && last.Cat == cat && last.End == start {
		last.End = end
		return
	}
	t.spans.push(Span{Start: start, End: end, Cat: cat})
}

// Events returns the recorded events, oldest first, plus the count of events
// dropped to ring overflow.
func (t *NodeTrace) Events() ([]Event, int64) {
	out := make([]Event, t.events.len())
	for i := range out {
		out[i] = t.events.at(i)
	}
	return out, t.events.dropped
}

// Spans returns the recorded charge spans, oldest first, plus the count of
// spans dropped to ring overflow.
func (t *NodeTrace) Spans() ([]Span, int64) {
	out := make([]Span, t.spans.len())
	for i := range out {
		out[i] = t.spans.at(i)
	}
	return out, t.spans.dropped
}

// DefaultEventCap is the per-node event-ring capacity used when NewTracer is
// given a non-positive capacity. The span ring gets four times as many slots:
// charge spans are denser than discrete events even after coalescing.
const DefaultEventCap = 1 << 15

// Tracer is the per-run (or per-multi-phase-run) trace collector: one
// NodeTrace per simulated node plus the phase offset that keeps back-to-back
// phases on one contiguous timeline.
type Tracer struct {
	nodes  []NodeTrace
	offset sim.Time
}

// NewTracer creates a tracer for n nodes with the given per-node event-ring
// capacity (<= 0 selects DefaultEventCap).
func NewTracer(n, eventCap int) *Tracer {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	t := &Tracer{nodes: make([]NodeTrace, n)}
	for i := range t.nodes {
		t.nodes[i] = NodeTrace{
			node:   i,
			events: ring[Event]{max: eventCap},
			spans:  ring[Span]{max: 4 * eventCap},
		}
	}
	return t
}

// Nodes returns the tracer's node count.
func (t *Tracer) Nodes() int { return len(t.nodes) }

// Node returns node i's trace handle for reading.
func (t *Tracer) Node(i int) *NodeTrace { return &t.nodes[i] }

// Attach returns node i's recording handle for a new phase, stamping the
// current phase offset into it. The machine calls it once per node per Run.
func (t *Tracer) Attach(i int) *NodeTrace {
	nt := &t.nodes[i]
	nt.base = t.offset
	return nt
}

// EndPhase advances the phase offset by the finished phase's makespan, so
// the next phase's records land after this one on the shared timeline.
func (t *Tracer) EndPhase(makespan sim.Time) { t.offset += makespan }

// Offset returns the accumulated phase offset (the virtual start time of the
// next phase).
func (t *Tracer) Offset() sim.Time { return t.offset }
