// Package core implements Dynamic Pointer Alignment (DPA), the paper's
// primary contribution: a runtime that schedules pointer-labeled
// non-blocking threads and their communication together, so that
//
//   - threads that use the same global object execute back to back
//     (generalized tiling: data reuse while the object is hot),
//   - object requests are issued early and overlap with local execution
//     (message pipelining), and
//   - requests to the same owner node are batched (message aggregation).
//
// The programming model matches the paper's compiler output: a computation
// is decomposed into threads, each of which dereferences exactly one global
// pointer, hoisted to thread entry. A thread body is a template registered
// once per phase (Template); a thread-creation site is labeled with the
// pointer and spawns the template with a two-word frame (SpawnT). Spawn is
// the closure convenience over the same record. The runtime maintains the
// two tables from the paper:
//
//	M : pointer -> dependent (suspended) threads, updated at Spawn
//	D : pointer -> fetch state (in flight, or an arrived renamed copy)
//
// Top-level concurrent loops are strip-mined (ForAll) with a static strip
// size, like k-bounded loops, to bound the memory consumed by outstanding
// thread state and renamed copies. Renamed copies are dropped at strip
// boundaries; the strip size therefore trades refetch traffic against
// memory, which the paper's "DPA (50)" / "DPA (300)" configurations explore.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Config selects the DPA scheduling and communication policy.
type Config struct {
	// Strip is the strip size for top-level concurrent loops (the paper's
	// headline configuration is 50). 0 means "one strip": the whole loop
	// is admitted at once, with no strip-mining. Negative values are
	// invalid (rejected by Validate). In planned mode the planner sizes
	// every strip, the first one included; Strip is only the baseline the
	// strip grow/shrink counters start from.
	Strip int
	// Planned selects planned mode over the paper's static strip. At every
	// strip boundary a closed-form cost model — fed by the strip's reuse
	// summary (per-owner fetch histogram, stall fraction, renamed-copy
	// bytes) — chooses the next strip size and per-destination aggregation
	// limits before the strip runs, and the D-table keeps every renamed copy
	// across strip boundaries while the copies fit MemBudget. When the
	// driver attaches a cross-phase prior table, a repeated phase is planned
	// from the previous phase's measured signals and its top-level
	// iterations are reordered into owner-major runs (affinity-shaped
	// tiles). Ready threads run on the same queue, in the same discipline,
	// as in static mode. Each strip is the model's proposal clamped to
	// [StripMin, StripMax]; a misprediction is counted, not corrected. All
	// decisions are pure functions of simulated-time state, so planned runs
	// stay bit-identical across engines, repeats and seeded faults; with
	// Planned false none of these paths run.
	Planned bool
	// StripMin/StripMax bound the planned strip size (<= 0: defaults 8 and
	// 4096). Ignored in static mode.
	StripMin int
	StripMax int
	// MemBudget is the renamed-copy byte budget above which planned mode
	// drops every copy at a strip boundary (<= 0: default 4 MB). Ignored in
	// static mode.
	MemBudget int64
	// AggLimit is the maximum number of pointers per request message.
	// 1 disables aggregation; 0 means unlimited; negative is invalid
	// (rejected by Validate).
	AggLimit int
	// Pipeline enables eager flushing of request buffers so communication
	// overlaps thread execution. When false, requests are deferred until
	// the ready queue drains (no overlap).
	Pipeline bool
	// PollEvery is the number of ready-thread executions between network
	// polls. <= 0 defaults to 1 (poll every iteration, the paper's
	// conservative placement).
	PollEvery int
	// LIFO selects a depth-first ready-queue discipline instead of the
	// default FIFO. The paper's compiler chooses among scheduling
	// templates; the queue discipline is the scheduling half of that
	// choice — LIFO finishes traversal subtrees before starting new ones
	// (less outstanding state), FIFO preserves reply-grouping order.
	LIFO bool

	// SpawnCost is runtime overhead charged per thread-creation site.
	SpawnCost sim.Time
	// ExecCost is scheduler overhead charged per thread dispatch.
	ExecCost sim.Time
	// MapCost is the cost of one M/D table operation (paid only on spawns
	// that reference remote objects; this is the "minimized hashing"
	// advantage over software caching, which probes on every access).
	MapCost sim.Time
}

// Default returns the paper's headline configuration: strip size 50,
// aggregation and pipelining enabled.
func Default() Config {
	return Config{
		Strip:     50,
		AggLimit:  16,
		Pipeline:  true,
		PollEvery: 1,
		SpawnCost: 90, // allocate+label the continuation, owner test, M/D bookkeeping
		ExecCost:  54, // dequeue, dispatch through the renamed pointer
		MapCost:   30,
	}
}

// Validate rejects configurations with no defined meaning. It is called by
// the driver before a runtime is instantiated.
func (c *Config) Validate() error {
	if c.Strip < 0 {
		return fmt.Errorf("core: Strip must be >= 0 (0 = one strip), got %d", c.Strip)
	}
	if c.StripMin < 0 || c.StripMax < 0 {
		return fmt.Errorf("core: strip bounds must be >= 0 (0 = default), got min=%d max=%d",
			c.StripMin, c.StripMax)
	}
	// Compared once defaults apply: a zero bound is the default, not "no
	// bound", so StripMin 5000 alone inverts the range as surely as
	// StripMax 4 alone does.
	if lo, hi := c.stripBounds(); lo > hi {
		return fmt.Errorf("core: effective strip bounds inverted: min %d > max %d (StripMin=%d, StripMax=%d; 0 = default %d/%d)",
			lo, hi, c.StripMin, c.StripMax, defaultStripMin, defaultStripMax)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("core: MemBudget must be >= 0 (0 = default), got %d", c.MemBudget)
	}
	if c.AggLimit < 0 {
		return fmt.Errorf("core: AggLimit must be >= 0 (0 = unlimited), got %d", c.AggLimit)
	}
	if c.PollEvery < 0 {
		return fmt.Errorf("core: PollEvery must be >= 0 (0 = every iteration), got %d", c.PollEvery)
	}
	if c.SpawnCost < 0 || c.ExecCost < 0 || c.MapCost < 0 {
		return fmt.Errorf("core: costs must be non-negative (spawn=%d exec=%d map=%d)",
			c.SpawnCost, c.ExecCost, c.MapCost)
	}
	return nil
}

// stripBounds resolves StripMin/StripMax with their defaults.
func (c *Config) stripBounds() (lo, hi int) {
	lo, hi = c.StripMin, c.StripMax
	if lo <= 0 {
		lo = defaultStripMin
	}
	if hi <= 0 {
		hi = defaultStripMax
	}
	return lo, hi
}

func (c *Config) aggLimit() int {
	if c.AggLimit <= 0 {
		return math.MaxInt
	}
	return c.AggLimit
}

func (c *Config) pollEvery() int {
	if c.PollEvery <= 0 {
		return 1
	}
	return c.PollEvery
}

// Proto holds the fetch-protocol handler ids on a shared fm.Net. Register
// once per Net, before endpoints are created.
type Proto struct {
	hReq   int
	hReply int
}

// fetchReq is the fetch protocol's one record: a batch of pointers to one
// owner's objects. The requester fills it (it is the owner's open
// aggregation buffer until flushed), the owner sends the same record back as
// the reply, and the requester recycles it through its free list, so a
// record always returns to the node that filled it and the steady-state
// fetch protocol allocates nothing on the host. The reply carries no objects:
// phases are read-only, so the renamed copy of p is rt.Space.Get(p), and the
// reply's byte size models its serialization.
type fetchReq struct {
	ptrs []gptr.Ptr
}

const msgHeaderBytes = 4

// RegisterProto installs the DPA fetch handlers on net.
func RegisterProto(net *fm.Net) *Proto {
	p := &Proto{}
	p.hReq = net.Register(onFetchReq)
	p.hReply = net.Register(onFetchReply)
	return p
}

func onFetchReq(ep *fm.EP, m sim.Message) {
	rt := ep.Ctx.(*RT)
	req := m.Payload.(*fetchReq)
	if rt.trc != nil {
		rt.trc.Event(obs.KFetchServe, ep.Node.Now(), int64(m.From), int64(len(req.ptrs)))
	}
	bytes := msgHeaderBytes
	for _, p := range req.ptrs {
		// The owner reads the object out of its memory to serialize it.
		ep.Node.Touch(p.Key())
		bytes += rt.Space.Get(p).ByteSize() + gptr.PtrBytes
	}
	ep.Send(m.From, rt.proto.hReply, req, bytes) // the record goes home as the reply
}

func onFetchReply(ep *fm.EP, m sim.Message) {
	rt := ep.Ctx.(*RT)
	rep := m.Payload.(*fetchReq)
	if d := rt.dests.find(m.From); d != nil {
		if d.pending > 0 {
			d.pending--
			rt.pendingReplies--
		}
		observeRTT(d, ep.Node.Now())
	}
	rt.wakeReply(m.From, rep.ptrs)
	rt.trackPeak()
	rt.pool.putReq(rep)
}

// wakeReply readies every thread suspended on the pointers owner's reply
// carries. All threads dependent on one pointer become ready together, so
// they run back to back, reusing the renamed copy while it is hot, and one
// batch's pointers follow each other in the queue.
func (rt *RT) wakeReply(owner int, ptrs []gptr.Ptr) {
	for _, p := range ptrs {
		e := rt.arrive(p, owner)
		if e == nil {
			continue
		}
		rt.waiting -= int(e.n)
		for wi, k := e.head, e.n; k > 0; k-- {
			w := rt.waiters.at(wi)
			rt.ready.push(w.ready(p))
			wi = w.next
		}
		rt.freeWaiters(e)
	}
}

// arrive records that owner's reply carried the renamed copy of p and returns
// p's entry, or nil when there is nothing to wake — only possible under
// degradation: the entry was abandoned (owner declared unreachable) before
// this late reply landed.
func (rt *RT) arrive(p gptr.Ptr, owner int) *dEntry {
	e := rt.lookup(p)
	if e == nil || e.stamp != rt.stamp || e.n == 0 {
		return nil
	}
	if rt.trc != nil {
		rt.trc.Event(obs.KFetchReply, rt.EP.Node.Now(), int64(p.Key()), int64(owner))
	}
	rt.arrivedBytes += int64(rt.Space.Get(p).ByteSize())
	if rt.arrivedBytes > rt.st.PeakArrivedBytes {
		rt.st.PeakArrivedBytes = rt.arrivedBytes
	}
	if rt.Cfg.Planned && rt.arrivedBytes > rt.ctl.stripPeak {
		rt.ctl.stripPeak = rt.arrivedBytes
	}
	return e
}

// dEntry is one remote pointer's fused M/D table entry. While the fetch is in
// flight it holds the suspended threads (the paper's M table) as a FIFO chain
// of n nodes through the waiter slab; once the reply has woken them n is zero
// and the entry stands for the arrived renamed copy (the D table), which is
// rt.Space.Get(p). A live entry whose copy has not arrived always has a
// waiter, since the spawn that arms it suspends on it, so n == 0 is "arrived".
// An entry is live while its stamp is the runtime's: a strip boundary drops
// every copy by moving the runtime's stamp on, and an abandon moves the one
// entry's back, so a stale entry is a pointer fetched earlier in the phase and
// dropped since, which a spawn re-arms as a refetch. Entries are never freed
// within a phase: the slab holds every remote pointer the phase has fetched,
// in first-fetch order, and RT.index finds them. head and tail mean
// nothing while n is zero. The sizeof regression test pins the layout.
type dEntry struct {
	p          gptr.Ptr
	head, tail int32  // first and last waiter of the chain
	n          int32  // suspended threads
	stamp      uint32 // the runtime's stamp when last armed
}

// waiter is one suspended thread, a node of its entry's chain: the thread
// record — template and the two frame words — and the index of the next
// node. It holds no Go pointers, so the collector never scans the slab. A
// resumed waiter runs with no iteration attribution: its iteration's affinity
// was already recorded first-wins when the fetch was issued.
type waiter struct {
	a0, a1 uint64
	tmpl   int32
	next   int32
}

func (w *waiter) ready(p gptr.Ptr) readyEntry {
	return readyEntry{p: p, a0: w.a0, a1: w.a1, tmpl: w.tmpl, iter: -1}
}

// suspend appends a thread to e's waiter chain, taking the node from the
// slab's free list.
func (rt *RT) suspend(e *dEntry, tmpl int32, a0, a1 uint64) {
	w := waiter{a0: a0, a1: a1, tmpl: tmpl}
	wi := rt.waiterFree
	if wi < 0 {
		wi = rt.waiters.push(w)
	} else {
		slot := rt.waiters.at(wi)
		rt.waiterFree = slot.next
		*slot = w
	}
	if e.n == 0 {
		e.head = wi
	} else {
		rt.waiters.at(e.tail).next = wi
	}
	e.tail = wi
	e.n++
	rt.waiting++
}

// freeWaiters returns e's whole chain to the free list, the moment a reply
// (or an abandon) has dealt with its threads.
func (rt *RT) freeWaiters(e *dEntry) {
	if e.n == 0 {
		return
	}
	rt.waiters.at(e.tail).next = rt.waiterFree
	rt.waiterFree = e.head
	e.n = 0
}

// The M/D index (RT.index) maps a remote pointer to its entry: a power-of-two
// cell array over the entry slab, where a cell holds entry index + 1 and 0
// marks an empty cell, probed linearly from the pointer's Fibonacci hash at
// load at most one half. Nothing is deleted from it within a phase (a dropped
// entry stays, stale), so there are no tombstones, and growth rehashes from
// the slab. Neither the cells nor the slab hold a Go pointer. The index
// starts with room for seg0 pointers, as many as the slab's first segment.
const mdMinCells = 2 * seg0

// probe returns the cell holding p's entry, or the empty cell where it would
// be inserted. The index must be non-empty.
func (rt *RT) probe(p gptr.Ptr) int {
	mask := len(rt.index) - 1
	i := int(p.Key() * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
	for c := rt.index[i]; c != 0 && rt.entries.at(c-1).p != p; c = rt.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns p's entry, live or stale, or nil when the phase has not
// fetched p.
func (rt *RT) lookup(p gptr.Ptr) *dEntry {
	if len(rt.index) == 0 {
		return nil
	}
	if c := rt.index[rt.probe(p)]; c != 0 {
		return rt.entries.at(c - 1)
	}
	return nil
}

// growIndex doubles the index (or creates it) and rehashes every entry.
func (rt *RT) growIndex() {
	rt.index = make([]int32, max(2*len(rt.index), mdMinCells))
	for ei := int32(0); ei < rt.entries.n; ei++ {
		rt.index[rt.probe(rt.entries.at(ei).p)] = ei + 1
	}
}

// RT is the per-node DPA runtime instance.
type RT struct {
	EP    *fm.EP
	Space *gptr.Space
	Cfg   Config
	proto *Proto

	ready   readyQueue
	index   []int32 // M/D index over entries: entry index + 1, 0 = empty cell
	waiting int

	// Thread records (see DESIGN.md §6, "Thread records"). A thread is a
	// pointer, a template and two frame words; everything that holds threads
	// is a slab linked by index, whose free list ends at -1. The strip stamp
	// and the free list's head share a word (TestHotStructSizeBudgets' RT
	// row).
	entries    seg[dEntry] // M/D entries, one per pointer fetched this phase
	waiters    seg[waiter] // suspended-thread slab
	stamp      uint32      // live entries' stamp; dropCopies moves it on
	waiterFree int32       // free waiter nodes, linked through next
	tmpls      Templates   // this phase's templates; a record's tmpl indexes it
	closures   Closures    // Spawn's parked closures (threads.go)

	// dests holds all per-destination state (open request records,
	// outstanding-request counts, RTT samples, planner histograms), one slot
	// per owner this node has touched; see dests.go.
	dests    destTable
	nodes    int     // machine size: the length of every dense per-owner view
	aggDests []int32 // slots with an open request record, FIFO
	aggCount int     // total queued pointers

	pendingReplies int

	err error // first degradation error (unreachable owners), if any

	arrivedBytes int64
	st           stats.RTStats
	pool         pools

	// trc is the node's observability handle (nil when tracing is off),
	// cached at construction so hot-path emission sites pay one nil check.
	trc *obs.NodeTrace

	// Planned mode (Cfg.Planned); see plan.go, planmodel.go and prior.go.
	plan  planState
	ctl   stripCtl
	trace []stats.AdaptPoint
}

// New creates the runtime for one node and binds it to the endpoint (the
// fetch handlers find it through ep.Ctx). It builds the runtime on the
// storage of prev, the node's runtime from the previous phase (nil: fresh
// storage), which recycle reduces to storage: the new runtime's snapshot
// encoding is a fresh one's byte for byte, and only its template ids continue
// from prev's, so a stale id panics. prev, and every slice it handed out
// (AdaptTrace), is invalid once New returns.
func New(proto *Proto, ep *fm.EP, space *gptr.Space, cfg Config, prev *RT) *RT {
	rt := prev
	if rt == nil {
		rt = new(RT)
	}
	rt.recycle()
	rt.EP, rt.Space, rt.Cfg, rt.proto = ep, space, cfg, proto
	rt.nodes = ep.Node.N()
	rt.trc = ep.Node.Obs()
	if cfg.Planned {
		rt.initCtl()
		rt.plan.init(ep.Node.Cfg())
	}
	ep.Ctx = rt
	return rt
}

// recycle reduces the runtime to its storage: every container is emptied in
// place (dropping the previous phase's templates, whose ids die here, and any
// closure still parked) and carried over; every other field — counters,
// EWMAs, strip and planner state, configuration, bindings — is zeroed by
// omission from the literal, so nothing a new field adds can leak across
// phases.
func (rt *RT) recycle() {
	clear(rt.index)
	rt.tmpls.Reset()
	rt.closures.Reset()
	rt.dests.reset()
	rt.entries.reset()
	rt.waiters.reset()
	*rt = RT{
		index:      rt.index,
		pool:       rt.pool,
		dests:      rt.dests,
		entries:    rt.entries,
		waiters:    rt.waiters,
		waiterFree: -1,
		tmpls:      rt.tmpls,
		closures:   rt.closures,
		ready:      readyQueue{blocks: rt.ready.blocks},
		aggDests:   rt.aggDests[:0],
		trace:      rt.trace[:0],
		plan:       planState{perm: rt.plan.perm},
	}
}

// Stats returns the node's runtime counters.
func (rt *RT) Stats() stats.RTStats { return rt.st }

// Err returns the runtime's degradation error, nil for a clean run.
func (rt *RT) Err() error { return rt.err }

// Template registers a thread body for the rest of the phase and returns the
// id SpawnT takes. Apps register each creation site's body once per node per
// phase; the id dies with the phase.
func (rt *RT) Template(fn Template) int { return rt.tmpls.Add("core", fn) }

// SpawnT registers a thread labeled with pointer p — the paper's
// thread-creation site: template id will run on p's object with the frame
// words a0 and a1. If p is local or replicated the thread is immediately
// ready (no table operation). Otherwise M and D route it: an already-arrived
// renamed copy makes it ready, an in-flight fetch queues it on M, and a fresh
// pointer enqueues a request in the owner's open request record.
func (rt *RT) SpawnT(p gptr.Ptr, id int, a0, a1 uint64) {
	rt.spawn(p, rt.tmpls.Index("core", id), a0, a1)
}

// Spawn is SpawnT for a closure: the convenience form, for threads whose
// frame does not fit two words. The closure is parked and runs as an
// ordinary template thread, the same record on the same path.
func (rt *RT) Spawn(p gptr.Ptr, fn Thread) { rt.closures.Spawn(rt, "core", p, fn) }

func (rt *RT) spawn(p gptr.Ptr, tmpl int32, a0, a1 uint64) {
	if p.IsNil() {
		panic("core: Spawn with nil pointer")
	}
	n := rt.EP.Node
	n.Charge(sim.SchedOv, rt.Cfg.SpawnCost)
	rt.st.Spawns++
	// The thread as it will be once its object is at hand. iter rides along
	// so a local spawn's thread tree (e.g. a traversal rooted at a replicated
	// pointer) keeps attributing its remote references to the originating
	// top-level iteration.
	t := readyEntry{p: p, a0: a0, a1: a1, tmpl: tmpl, iter: rt.plan.curIter}
	if rt.Space.LocalOrRepl(p, n.ID()) {
		rt.st.LocalHits++
		rt.ready.push(t)
		rt.trackPeak()
		return
	}
	n.Charge(sim.SchedOv, rt.Cfg.MapCost)
	if rt.plan.recAff != nil && rt.plan.curIter >= 0 && rt.plan.recAff[rt.plan.curIter] < 0 {
		// First remote reference of this top-level iteration: record its
		// owner as the iteration's affinity (first-wins) for the next
		// phase's owner-major shaping.
		rt.plan.recAff[rt.plan.curIter] = int32(p.Node)
	}
	if 2*(int(rt.entries.n)+1) > len(rt.index) {
		rt.growIndex() // room for one more pointer at load <= 1/2
	}
	ci := rt.probe(p)
	var e *dEntry
	if c := rt.index[ci]; c != 0 {
		e = rt.entries.at(c - 1)
	}
	if e != nil && e.stamp == rt.stamp {
		rt.st.Reuses++
		if e.n == 0 {
			rt.ready.push(t)
		} else {
			rt.suspend(e, tmpl, a0, a1)
		}
		rt.trackPeak()
		return
	}
	if e == nil {
		ei := rt.entries.push(dEntry{p: p, stamp: rt.stamp})
		rt.index[ci] = ei + 1
		e = rt.entries.at(ei)
	} else {
		// Fetched before and dropped since (a strip boundary, or an
		// abandon): the refetch traffic the strip size trades against
		// memory. The stale entry is re-armed in place.
		rt.st.Refetches++
		e.stamp = rt.stamp
	}
	rt.suspend(e, tmpl, a0, a1)
	rt.st.Fetches++
	rt.enqueueReq(p)
	rt.trackPeak()
}

// enqueueReq adds p to its owner's open request record — the aggregation
// buffer, opened from the free list on the owner's first pending request —
// and, under the pipelining policy, flushes the record when it reaches the
// aggregation limit.
func (rt *RT) enqueueReq(p gptr.Ptr) {
	si := rt.dests.slot(int(p.Node))
	d := &rt.dests.slots[si]
	limit := rt.destLimit(d)
	if d.req == nil {
		d.req = rt.pool.getReq(1)
		rt.aggDests = append(rt.aggDests, si)
	}
	rt.pool.push(d.req, p, limit)
	rt.aggCount++
	if rt.Cfg.Planned {
		if d.curHist == 0 {
			rt.plan.owners++
		}
		d.curHist++
		d.phaseHist++
	}
	if rt.Cfg.Pipeline && len(d.req.ptrs) >= limit {
		rt.flushDest(d)
	}
}

// flushDest sends one destination's open request record. A record within the
// destination's aggregation limit goes out as it is; a longer one — requests
// deferred with Pipeline off, or a planned limit that shrank while the record
// was open — is split into chunks of at most the limit, each copied into a
// record of its own, and goes back to the free list. Sending never runs a
// handler, so d stays valid throughout.
func (rt *RT) flushDest(d *destState) {
	req := d.req
	if req == nil {
		return
	}
	d.req = nil
	dst := int(d.owner)
	if rt.Cfg.Planned && !d.rttMark && d.pending == 0 {
		// Arm a round-trip sample: nothing is in flight to dst, so the
		// first reply back answers this send.
		d.rttMark = true
		d.rttSentAt = rt.EP.Node.Now()
	}
	limit := rt.destLimit(d)
	n := len(req.ptrs)
	for lo := 0; lo < n; lo += limit {
		msg := req
		if n > limit {
			hi := min(lo+limit, n)
			msg = rt.pool.getReq(hi - lo)
			msg.ptrs = append(msg.ptrs, req.ptrs[lo:hi]...)
		}
		if rt.trc != nil {
			now := rt.EP.Node.Now()
			for _, p := range msg.ptrs {
				rt.trc.Event(obs.KFetchReq, now, int64(p.Key()), int64(dst))
			}
		}
		rt.EP.Send(dst, rt.proto.hReq, msg,
			msgHeaderBytes+gptr.PtrBytes*len(msg.ptrs))
		rt.pendingReplies++
		d.pending++
		rt.st.ReqMsgs++
	}
	if n > limit {
		rt.pool.putReq(req)
	}
	rt.aggCount -= n
}

// FlushAll sends every open request record: in destination-arrival order
// normally, in ascending owner order in planned mode (owner-sorted batches).
// Both orders are deterministic.
func (rt *RT) FlushAll() {
	if rt.Cfg.Planned {
		if rt.aggCount > 0 {
			for _, si := range rt.dests.byOwner {
				rt.flushDest(&rt.dests.slots[si])
			}
		}
		rt.aggDests = rt.aggDests[:0]
		return
	}
	for _, si := range rt.aggDests {
		rt.flushDest(&rt.dests.slots[si])
	}
	rt.aggDests = rt.aggDests[:0]
}

// Drain runs the scheduler until all spawned work (including transitively
// spawned threads) has completed: the ready queue is empty, no requests are
// buffered, and no replies are outstanding. While waiting for replies the
// node serves incoming requests from other nodes. If an owner node becomes
// unreachable (retry budget exhausted under fault injection), the threads
// waiting on its objects are abandoned — counted and surfaced through Err —
// instead of waiting forever.
func (rt *RT) Drain() {
	nd := rt.EP.Node
	nd.SetIdleCategory(sim.FetchStall) // waits in here block on fetches
	defer nd.SetIdleCategory(sim.Idle)
	pollEvery := rt.Cfg.pollEvery()
	for {
		rt.EP.Poll()
		ran := 0
		for rt.ready.len() > 0 && ran < pollEvery {
			rt.runOne()
			ran++
		}
		if rt.ready.len() > 0 {
			continue
		}
		if rt.aggCount > 0 {
			// Out of local work: requests can no longer be usefully
			// deferred (this is the only send point when Pipeline=false).
			rt.FlushAll()
			continue
		}
		if rt.pendingReplies > 0 {
			if rt.abandonUnreachable() {
				continue
			}
			// An owner that crashed after acking our requests will never
			// reply; keep detection traffic flowing so the wait below stays
			// deadline-bounded (no-op outside crash fault mode).
			for _, si := range rt.dests.byOwner {
				if d := &rt.dests.slots[si]; d.pending > 0 {
					rt.EP.ProbeOwner(int(d.owner))
				}
			}
			rt.EP.WaitAndDispatch()
			continue
		}
		return
	}
}

// abandonUnreachable drops all fetch state destined for owners declared
// unreachable, reporting whether it made progress.
func (rt *RT) abandonUnreachable() bool {
	if !rt.EP.Degraded() {
		return false
	}
	progress := rt.abandonFetches(rt.EP)
	for i := range rt.dests.slots {
		if d := &rt.dests.slots[i]; d.pending > 0 && rt.EP.Unreachable(int(d.owner)) {
			rt.pendingReplies -= int(d.pending)
			d.pending = 0
			progress = true
		}
	}
	if progress && rt.err == nil {
		rt.err = fmt.Errorf("core: abandoned threads waiting on unreachable owners: %w",
			fm.ErrUnreachable)
	}
	return progress
}

// abandonFetches drops every fetch in flight to an owner net reports
// unreachable, counting its suspended threads abandoned, and reports whether
// there was one. The walk's effects are order-independent (counter sums and
// stale marks only); it goes in first-fetch order all the same, and stops
// once no thread is left waiting.
func (rt *RT) abandonFetches(net interface{ Unreachable(owner int) bool }) bool {
	progress := false
	for ei := int32(0); ei < rt.entries.n && rt.waiting > 0; ei++ {
		e := rt.entries.at(ei)
		if e.n == 0 || e.stamp != rt.stamp || !net.Unreachable(int(e.p.Node)) {
			continue
		}
		rt.st.Abandoned += int64(e.n)
		rt.waiting -= int(e.n)
		rt.freeWaiters(e)
		rt.forget(e)
		progress = true
	}
	return progress
}

// runOne dispatches the next ready thread under the configured queue
// discipline. The thread runs on rt.Space.Get of its pointer: its own node's
// object, a replicated one, or another node's object standing in for the
// renamed copy that arrived. Reading other nodes' heaps here is safe under
// the parallel engine only because the space is read-only during a phase —
// every Space.Alloc happens while the application builds its data, before
// the machine runs (the driver's validation checks this).
func (rt *RT) runOne() {
	var e readyEntry
	if rt.Cfg.LIFO {
		e = rt.ready.popBack()
	} else {
		e = rt.ready.pop()
	}
	n := rt.EP.Node
	var t0 sim.Time
	if rt.trc != nil {
		t0 = n.Now()
	}
	if rt.plan.recAff != nil {
		// Restore the dispatched thread's top-level iteration so nested
		// spawns attribute their affinity to it (prior.go).
		rt.plan.curIter = e.iter
	}
	n.Charge(sim.SchedOv, rt.Cfg.ExecCost)
	key := e.p.Key()
	n.Touch(key)
	rt.st.ThreadsRun++
	rt.tmpls.Run(e.tmpl, rt.Space.Get(e.p), e.a0, e.a1)
	if rt.trc != nil {
		rt.trc.EventDur(obs.KThread, t0, n.Now()-t0, int64(key), 0)
	}
}

// ForAll is the strip-mined top-level concurrent loop: it runs
// spawnIter(i) for every i in [0, n), admitting at most Strip top-level
// iterations per strip and draining all (transitively spawned) work between
// strips. Renamed copies are discarded at strip boundaries, bounding memory.
func (rt *RT) ForAll(n int, spawnIter func(i int)) {
	if rt.Cfg.Planned {
		rt.forAllPlanned(n, spawnIter)
		return
	}
	s := rt.Cfg.Strip
	if s <= 0 {
		s = n
	}
	for lo := 0; lo < n; lo += s {
		hi := lo + s
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			spawnIter(i)
		}
		if rt.Cfg.Pipeline {
			rt.FlushAll()
		}
		rt.Drain()
		rt.endStrip()
		if rt.trc != nil {
			rt.trc.Event(obs.KStrip, rt.EP.Node.Now(), int64(lo), int64(hi-lo))
		}
	}
}

// endStrip discards the strip's renamed copies.
func (rt *RT) endStrip() {
	rt.checkStripInvariant()
	rt.dropCopies()
}

func (rt *RT) checkStripInvariant() {
	if rt.waiting != 0 || rt.pendingReplies != 0 || rt.aggCount != 0 {
		panic(fmt.Sprintf("core: strip ended with waiting=%d pending=%d buffered=%d",
			rt.waiting, rt.pendingReplies, rt.aggCount))
	}
}

// forget drops one live entry, which a later spawn of its pointer refetches.
func (rt *RT) forget(e *dEntry) { e.stamp = rt.stamp - 1 }

// dropCopies drops every live entry by moving the stamp on. Every fetch has
// landed (or was abandoned) by the time a strip ends, so no dropped entry
// holds a waiter.
func (rt *RT) dropCopies() {
	rt.stamp++
	rt.arrivedBytes = 0
}

// trackPeak records the peak number of outstanding (suspended + ready)
// threads, the strip-size/memory metric of the paper's table.
func (rt *RT) trackPeak() {
	out := int64(rt.waiting + rt.ready.len())
	if out > rt.st.PeakOutstanding {
		rt.st.PeakOutstanding = out
	}
}

// readyEntry is a thread whose object is available: the thread record
// (template and two frame words) plus the pointer whose object it runs on.
// iter is the top-level iteration the thread's tree originated from (-1 when
// unattributed), used by the planner's affinity recording; it shares a word
// with tmpl. It holds no Go pointers, so the collector never scans the ready
// queue's blocks. The sizeof regression test pins the 32-byte layout.
type readyEntry struct {
	p      gptr.Ptr
	a0, a1 uint64
	tmpl   int32
	iter   int32
}

// readyBlockLen is the length of a ready-queue block.
const readyBlockLen = 64

type readyBlock [readyBlockLen]readyEntry

// readyQueue is the queue of ready threads: a FIFO of fixed blocks on a ring
// that holds every block the queue owns, in queue order from the head's; the
// free ones are those after the tail's. When the tail's block is full and the
// next is the head's, a chunk of as many new blocks as the ring holds is
// spliced in after it, so no entry ever moves, the footprint is at most twice
// the peak ready count (rounded up to blocks), and a block the head leaves is
// reused when the tail comes round. Dispatch reads a block sequentially, and
// the head's and the tail's blocks are held directly, so a push or a pop
// reaches its entry without going through the ring. FIFO order preserves the
// contiguity of same-object groups released by one reply.
type readyQueue struct {
	blocks     []*readyBlock
	head, tail *readyBlock // blocks[hb] and blocks[tb]; nil until the first push
	hb, tb     int32
	ho, to     int32 // the oldest entry's slot in head; the next free slot in tail
	n          int32
}

func (q *readyQueue) len() int { return int(q.n) }

// at returns the i-th oldest queued entry.
func (q *readyQueue) at(i int) *readyEntry {
	pos := int(q.ho) + i
	b := int(q.hb) + pos/readyBlockLen
	if b >= len(q.blocks) {
		b -= len(q.blocks)
	}
	return &q.blocks[b][pos%readyBlockLen]
}

func (q *readyQueue) push(e readyEntry) {
	if q.to == readyBlockLen || q.tail == nil {
		q.nextBlock()
	}
	q.tail[q.to] = e
	q.to++
	q.n++
}

// nextBlock moves the tail to the next block of the ring, splicing a chunk
// of new blocks in after the tail's when the next one is the head's. A full
// tail block means the queue is not empty: pops that empty it rewind it. A
// new or recycled queue starts at the ring's first block.
func (q *readyQueue) nextBlock() {
	if q.tail == nil {
		if len(q.blocks) == 0 {
			q.splice(0)
		}
		q.head, q.tail = q.blocks[0], q.blocks[0]
		return
	}
	nb := q.tb + 1
	if int(nb) == len(q.blocks) {
		nb = 0
	}
	if nb == q.hb {
		nb = q.tb + 1
		if k := q.splice(nb); q.hb >= nb {
			q.hb += k
		}
	}
	q.tb, q.to, q.tail = nb, 0, q.blocks[nb]
}

// readyFirstChunk is the number of blocks a queue starts with: one, since
// few nodes' queues pass a block (EM3D with one graph node per kind on each
// of 1,024 nodes peaks at 10 ready threads), and the first splice doubles a
// queue that does.
const readyFirstChunk = 1

// splice inserts a chunk of new blocks, as many as the ring holds, at ring
// position at and returns how many.
func (q *readyQueue) splice(at int32) int32 {
	n := len(q.blocks)
	k := max(n, readyFirstChunk)
	chunk := make([]readyBlock, k)
	ring := q.blocks
	if cap(ring) < n+k {
		ring = make([]*readyBlock, n, 2*(n+k))
		copy(ring, q.blocks)
	}
	ring = ring[:n+k]
	copy(ring[int(at)+k:], ring[at:n])
	for j := range chunk {
		ring[int(at)+j] = &chunk[j]
	}
	q.blocks = ring
	return int32(k)
}

func (q *readyQueue) pop() readyEntry {
	e := q.head[q.ho]
	q.ho++
	if q.ho == readyBlockLen {
		q.ho = 0
		if q.hb++; int(q.hb) == len(q.blocks) {
			q.hb = 0
		}
		q.head = q.blocks[q.hb]
	}
	q.dec()
	return e
}

// popBack removes the most recently pushed entry (LIFO discipline).
func (q *readyQueue) popBack() readyEntry {
	if q.to == 0 {
		if q.tb == 0 {
			q.tb = int32(len(q.blocks))
		}
		q.tb--
		q.to, q.tail = readyBlockLen, q.blocks[q.tb]
	}
	q.to--
	e := q.tail[q.to]
	q.dec()
	return e
}

// dec counts a removed entry; the queue's last one rewinds the tail to the
// start of the head's block.
func (q *readyQueue) dec() {
	if q.n--; q.n == 0 {
		q.tb, q.tail, q.ho, q.to = q.hb, q.head, 0, 0
	}
}
