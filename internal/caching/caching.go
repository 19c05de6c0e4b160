// Package caching implements the software-caching runtime that the paper
// compares DPA against (in the style of Olden's software caching [3] and
// application-specific shared-memory protocols [14]).
//
// The programming model is the same pointer-labeled non-blocking thread
// interface as the DPA runtime, so applications run unchanged. The
// differences are exactly the ones the paper attributes its advantage to:
//
//   - every global access pays a hash probe into the object cache
//     (DPA pays a table cost only for remote, not-yet-arrived pointers and
//     accesses local and renamed copies directly — "minimized hashing");
//   - a miss requests a single object; there is no aggregation;
//   - cached objects persist for the whole phase, so caching refetches less
//     than strip-mined DPA — but its accesses are scattered in time, so it
//     loses the grouped data-cache reuse of aligned threads.
package caching

import (
	"fmt"

	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Config selects the caching runtime's costs and scheduling.
type Config struct {
	// PollEvery is ready-thread executions between polls (<= 0 means 1).
	PollEvery int
	// SpawnCost is runtime overhead per thread-creation site.
	SpawnCost sim.Time
	// ExecCost is scheduler overhead per thread dispatch.
	ExecCost sim.Time
	// Capacity bounds the software cache in objects; 0 means unbounded.
	// A bounded cache evicts in FIFO insertion order, so hot objects can be
	// refetched (capacity misses) — the realistic configuration for
	// fixed-size software caches.
	Capacity int
}

// Default returns the standard caching-runtime configuration. The hash
// probe cost itself comes from the machine config (Config.HashCost).
func Default() Config {
	return Config{PollEvery: 1, SpawnCost: 75, ExecCost: 45}
}

// Validate rejects configurations with no defined meaning. It is called by
// the driver before a runtime is instantiated.
func (c *Config) Validate() error {
	if c.PollEvery < 0 {
		return fmt.Errorf("caching: PollEvery must be >= 0 (0 = every iteration), got %d", c.PollEvery)
	}
	if c.Capacity < 0 {
		return fmt.Errorf("caching: Capacity must be >= 0 (0 = unbounded), got %d", c.Capacity)
	}
	if c.SpawnCost < 0 || c.ExecCost < 0 {
		return fmt.Errorf("caching: costs must be non-negative (spawn=%d exec=%d)", c.SpawnCost, c.ExecCost)
	}
	return nil
}

func (c *Config) pollEvery() int {
	if c.PollEvery <= 0 {
		return 1
	}
	return c.PollEvery
}

// Proto holds the handler ids of the single-object fetch protocol, which the
// blocking runtime speaks too: a miss sends one pointer to its owner, and the
// owner sends the same payload back as the reply. Phases are read-only, so
// the copy is Space.Get of the pointer, and the reply's byte size models it.
type Proto struct {
	hReq   int
	hReply int
}

// fetchReq is a request and, sent back by the owner, its reply.
type fetchReq struct{ ptr gptr.Ptr }

const msgHeaderBytes = 4

// RegisterProto installs the caching runtime's fetch handlers on net.
func RegisterProto(net *fm.Net) *Proto { return RegisterFetch(net, onFetchReply) }

// RegisterFetch installs the single-object fetch protocol on net for a
// runtime that embeds a Fetcher and is its endpoint's Ctx: the shared request
// handler, and onReply, which runs on the requesting node for each reply.
func RegisterFetch(net *fm.Net, onReply func(ep *fm.EP, from int, p gptr.Ptr)) *Proto {
	return &Proto{
		hReq: net.Register(onFetchReq),
		hReply: net.Register(func(ep *fm.EP, m sim.Message) {
			p := m.Payload.(fetchReq).ptr
			if trc := ep.Node.Obs(); trc != nil {
				trc.Event(obs.KFetchReply, ep.Node.Now(), int64(p.Key()), int64(m.From))
			}
			onReply(ep, m.From, p)
		}),
	}
}

func onFetchReq(ep *fm.EP, m sim.Message) {
	f := ep.Ctx.(interface{ fetcher() *Fetcher }).fetcher()
	p := m.Payload.(fetchReq).ptr
	if trc := ep.Node.Obs(); trc != nil {
		trc.Event(obs.KFetchServe, ep.Node.Now(), int64(m.From), 1)
	}
	ep.Node.Touch(p.Key())
	ep.Send(m.From, f.proto.hReply, fetchReq{p},
		msgHeaderBytes+gptr.PtrBytes+f.Space.Get(p).ByteSize())
}

// Fetcher is one node's end of the single-object fetch protocol, embedded in
// the caching and the blocking runtime.
type Fetcher struct {
	EP    *fm.EP
	Space *gptr.Space
	proto *Proto
	seen  map[gptr.Ptr]struct{} // pointers fetched earlier in the phase
}

// fetcher finds the Fetcher of the runtime bound to an endpoint.
func (f *Fetcher) fetcher() *Fetcher { return f }

// Reset starts a phase on f's storage, bound to ep and space: the pointers
// fetched so far are forgotten. The runtime embedding f binds itself to ep.
func (f *Fetcher) Reset(proto *Proto, ep *fm.EP, space *gptr.Space) {
	clear(f.seen)
	if f.seen == nil {
		f.seen = make(map[gptr.Ptr]struct{})
	}
	*f = Fetcher{EP: ep, Space: space, proto: proto, seen: f.seen}
}

// Request sends p's owner a request for p, counted in st. A pointer
// requested before in the phase counts as a refetch: the runtime held
// nothing for it (blocking) or evicted it (a bounded cache).
func (f *Fetcher) Request(p gptr.Ptr, st *stats.RTStats) {
	st.Fetches++
	if _, dup := f.seen[p]; dup {
		st.Refetches++
	} else {
		f.seen[p] = struct{}{}
	}
	st.ReqMsgs++
	if trc := f.EP.Node.Obs(); trc != nil {
		trc.Event(obs.KFetchReq, f.EP.Node.Now(), int64(p.Key()), int64(p.Node))
	}
	f.EP.Send(int(p.Node), f.proto.hReq, fetchReq{p}, msgHeaderBytes+gptr.PtrBytes)
}

func onFetchReply(ep *fm.EP, from int, p gptr.Ptr) {
	rt := ep.Ctx.(*RT)
	if rt.pendingByDest[from] > 0 {
		rt.pendingByDest[from]--
		rt.pendingReplies--
	}
	if rt.Cfg.Capacity > 0 {
		for len(rt.cache) >= rt.Cfg.Capacity && len(rt.evictQueue) > 0 {
			victim := rt.evictQueue[0]
			rt.evictQueue = rt.evictQueue[1:]
			if _, ok := rt.cache[victim]; ok {
				rt.cacheBytes -= int64(rt.Space.Get(victim).ByteSize())
				delete(rt.cache, victim)
			}
		}
		rt.evictQueue = append(rt.evictQueue, p) // read only when bounded
	}
	rt.cache[p] = struct{}{}
	rt.cacheBytes += int64(rt.Space.Get(p).ByteSize())
	if rt.cacheBytes > rt.st.PeakArrivedBytes {
		rt.st.PeakArrivedBytes = rt.cacheBytes
	}
	ws := rt.waitersFor[p]
	delete(rt.waitersFor, p)
	rt.waiting -= len(ws)
	rt.ready = append(rt.ready, ws...)
	rt.recycleWaiters(ws)
	rt.trackPeak()
}

// RT is the per-node software-caching runtime.
type RT struct {
	Fetcher
	Cfg Config

	cache      map[gptr.Ptr]struct{} // the copy itself is rt.Space.Get of its pointer
	cacheBytes int64
	evictQueue []gptr.Ptr
	waitersFor map[gptr.Ptr][]thread
	waiting    int
	// spare holds emptied waiter lists for the next misses to reuse; it
	// grows to the node's peak of pointers in flight at once.
	spare [][]thread

	ready     []thread
	readyHead int

	tmpls    core.Templates
	closures core.Closures

	pendingReplies int
	pendingByDest  []int // outstanding request messages per owner node

	err error // first degradation error (unreachable owners), if any
	st  stats.RTStats
}

// thread is a spawned thread, ready or waiting on a fetch: the pointer, the
// template's index and the two frame words, and whether the body's
// dereference pays a second hash probe. It holds no Go pointer — the thread
// runs on rt.Space.Get of its pointer — which the sizeof test pins.
type thread struct {
	p      gptr.Ptr
	a0, a1 uint64
	tmpl   int32
	remote bool
}

// New creates the caching runtime for one node, on the storage of prev, the
// node's runtime from the previous phase (nil: fresh storage). Every container is emptied and every other field zeroed, so the
// runtime is indistinguishable from a fresh one except that its template ids
// continue from prev's, so a stale id panics.
func New(proto *Proto, ep *fm.EP, space *gptr.Space, cfg Config, prev *RT) *RT {
	rt := prev
	if rt == nil {
		rt = new(RT)
	}
	clear(rt.cache)
	clear(rt.waitersFor)
	clear(rt.pendingByDest)
	rt.tmpls.Reset()
	rt.closures.Reset()
	rt.Fetcher.Reset(proto, ep, space)
	*rt = RT{
		Fetcher:       rt.Fetcher,
		Cfg:           cfg,
		cache:         rt.cache,
		evictQueue:    rt.evictQueue[:0],
		waitersFor:    rt.waitersFor,
		spare:         rt.spare,
		ready:         rt.ready[:0],
		tmpls:         rt.tmpls,
		closures:      rt.closures,
		pendingByDest: rt.pendingByDest,
	}
	if rt.cache == nil {
		rt.cache = make(map[gptr.Ptr]struct{})
		rt.waitersFor = make(map[gptr.Ptr][]thread)
		rt.pendingByDest = make([]int, ep.Node.N())
	}
	ep.Ctx = rt
	return rt
}

// Stats returns the node's runtime counters.
func (rt *RT) Stats() stats.RTStats { return rt.st }

// Err returns the runtime's degradation error, nil for a clean run.
func (rt *RT) Err() error { return rt.err }

// Template registers a thread body for the rest of the phase and returns the
// id SpawnT takes.
func (rt *RT) Template(fn core.Template) int { return rt.tmpls.Add("caching", fn) }

// Spawn is SpawnT for a closure, through the shared closure form.
func (rt *RT) Spawn(p gptr.Ptr, fn core.Thread) { rt.closures.Spawn(rt, "caching", p, fn) }

// SpawnT registers a thread for pointer p: template id will run on p's object
// with the frame words a0 and a1. Every remote spawn pays a hash probe; hits
// run from the cache, misses send a single-object request and suspend the
// thread until the reply.
func (rt *RT) SpawnT(p gptr.Ptr, id int, a0, a1 uint64) {
	tmpl := rt.tmpls.Index("caching", id)
	if p.IsNil() {
		panic("caching: Spawn with nil pointer")
	}
	t := thread{p: p, a0: a0, a1: a1, tmpl: tmpl}
	n := rt.EP.Node
	n.Charge(sim.SchedOv, rt.Cfg.SpawnCost)
	rt.st.Spawns++
	if rt.Space.LocalOrRepl(p, n.ID()) {
		// Local and replicated objects take the cheap address-check fast
		// path (subsumed in SpawnCost), as in Olden-style software caching.
		rt.st.LocalHits++
		rt.ready = append(rt.ready, t)
		rt.trackPeak()
		return
	}
	// Every remote access is mediated by the cache hash table: one probe at
	// the access site...
	n.Charge(sim.HashOv, n.Cfg().HashCost)
	t.remote = true
	if _, ok := rt.cache[p]; ok {
		rt.st.Reuses++
		rt.ready = append(rt.ready, t)
		rt.trackPeak()
		return
	}
	if ws, ok := rt.waitersFor[p]; ok {
		rt.st.Reuses++
		rt.waitersFor[p] = append(ws, t)
		rt.waiting++
		rt.trackPeak()
		return
	}
	var ws []thread
	if k := len(rt.spare); k > 0 {
		ws, rt.spare = rt.spare[k-1], rt.spare[:k-1]
	}
	rt.waitersFor[p] = append(ws, t)
	rt.waiting++
	// A refetch is a capacity miss: the object was fetched, evicted, and
	// is wanted again (comparable to DPA's strip-boundary refetches).
	rt.Request(p, &rt.st)
	rt.pendingReplies++
	rt.pendingByDest[int(p.Node)]++
	rt.trackPeak()
}

// Drain runs until all spawned work completes, serving remote requests
// while waiting. Threads waiting on owners declared unreachable are
// abandoned (counted, surfaced through Err) instead of waiting forever.
func (rt *RT) Drain() {
	nd := rt.EP.Node
	nd.SetIdleCategory(sim.FetchStall) // waits in here block on fetches
	defer nd.SetIdleCategory(sim.Idle)
	pollEvery := rt.Cfg.pollEvery()
	for {
		rt.EP.Poll()
		ran := 0
		for rt.readyLen() > 0 && ran < pollEvery {
			rt.runOne()
			ran++
		}
		if rt.readyLen() > 0 {
			continue
		}
		if rt.pendingReplies > 0 {
			if rt.abandonUnreachable() {
				continue
			}
			// Keep detection traffic flowing toward owners that may have
			// crashed after acking our requests (no-op outside crash mode).
			for dst, n := range rt.pendingByDest {
				if n > 0 {
					rt.EP.ProbeOwner(dst)
				}
			}
			rt.EP.WaitAndDispatch()
			continue
		}
		return
	}
}

// abandonUnreachable drops the waiters of every pointer owned by an
// unreachable node, reporting whether it made progress. Effects are
// order-independent, so map iteration order cannot perturb determinism.
func (rt *RT) abandonUnreachable() bool {
	if !rt.EP.Degraded() {
		return false
	}
	progress := false
	for p, ws := range rt.waitersFor {
		if !rt.EP.Unreachable(int(p.Node)) {
			continue
		}
		rt.st.Abandoned += int64(len(ws))
		rt.waiting -= len(ws)
		delete(rt.waitersFor, p)
		rt.recycleWaiters(ws)
		progress = true
	}
	for dst := range rt.pendingByDest {
		if rt.pendingByDest[dst] > 0 && rt.EP.Unreachable(dst) {
			rt.pendingReplies -= rt.pendingByDest[dst]
			rt.pendingByDest[dst] = 0
			progress = true
		}
	}
	if progress && rt.err == nil {
		rt.err = fmt.Errorf("caching: abandoned threads waiting on unreachable owners: %w",
			fm.ErrUnreachable)
	}
	return progress
}

// ForAll runs spawnIter for every index. The caching runtime has no memory
// pressure from renamed copies, so the loop is not strip-mined; threads are
// admitted in bulk and drained once.
func (rt *RT) ForAll(n int, spawnIter func(i int)) {
	for i := 0; i < n; i++ {
		spawnIter(i)
	}
	rt.Drain()
}

// recycleWaiters keeps an emptied waiter list's array for a later miss.
func (rt *RT) recycleWaiters(ws []thread) {
	if cap(ws) > 0 {
		rt.spare = append(rt.spare, ws[:0])
	}
}

func (rt *RT) readyLen() int { return len(rt.ready) - rt.readyHead }

func (rt *RT) runOne() {
	e := rt.ready[rt.readyHead]
	rt.readyHead++
	if rt.readyHead == len(rt.ready) {
		rt.ready = rt.ready[:0]
		rt.readyHead = 0
	}
	n := rt.EP.Node
	n.Charge(sim.SchedOv, rt.Cfg.ExecCost)
	if e.remote {
		// ...and another probe when the thread body dereferences the
		// pointer again. DPA avoids this re-translation by renaming
		// (access hoisting): its threads receive a direct pointer.
		n.Charge(sim.HashOv, n.Cfg().HashCost)
	}
	n.Touch(e.p.Key())
	rt.st.ThreadsRun++
	rt.tmpls.Run(e.tmpl, rt.Space.Get(e.p), e.a0, e.a1)
}

func (rt *RT) trackPeak() {
	out := int64(rt.waiting + rt.readyLen())
	if out > rt.st.PeakOutstanding {
		rt.st.PeakOutstanding = out
	}
}
