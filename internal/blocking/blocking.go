// Package blocking implements the naive baseline runtime: every remote
// access is a blocking round trip with no caching, no aggregation, and no
// overlap of communication with computation. It exposes the same thread
// interface as the DPA and caching runtimes, but a spawned thread simply
// executes at its creation site, stalling the node on each remote
// dereference. This is the "unoptimized" end of the paper's breakdown
// figures: its bars are dominated by idle time and per-message overhead.
package blocking

import (
	"fmt"

	"dpa/internal/caching"
	"dpa/internal/core"
	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// Config selects the blocking runtime's costs.
type Config struct {
	// SpawnCost is overhead per creation site (the call itself).
	SpawnCost sim.Time
}

// Default returns the standard blocking-runtime configuration.
func Default() Config { return Config{SpawnCost: 4} }

// Validate rejects configurations with no defined meaning. It is called by
// the driver before a runtime is instantiated.
func (c *Config) Validate() error {
	if c.SpawnCost < 0 {
		return fmt.Errorf("blocking: SpawnCost must be non-negative, got %d", c.SpawnCost)
	}
	return nil
}

// RegisterProto installs the blocking runtime's handlers for the
// single-object fetch protocol it shares with the caching runtime.
func RegisterProto(net *fm.Net) *caching.Proto { return caching.RegisterFetch(net, onFetchReply) }

func onFetchReply(ep *fm.EP, _ int, p gptr.Ptr) {
	rt := ep.Ctx.(*RT)
	rt.replyPtr = p
	rt.replyOK = true
}

// RT is the per-node blocking runtime.
type RT struct {
	caching.Fetcher
	Cfg Config

	// The reply to the node's one outstanding blocking fetch (TOUCH
	// semantics: a node waits on at most one fetch at a time).
	replyPtr gptr.Ptr
	replyOK  bool

	tmpls    core.Templates
	closures core.Closures

	err error // first degradation error (unreachable owners), if any
	st  stats.RTStats
}

// New creates the blocking runtime for one node, on the storage of prev, the
// node's runtime from the previous phase (nil: fresh storage). Every other
// field is zeroed, so the runtime is indistinguishable from a fresh one
// except that its template ids continue from prev's, so a stale id panics.
func New(proto *caching.Proto, ep *fm.EP, space *gptr.Space, cfg Config, prev *RT) *RT {
	rt := prev
	if rt == nil {
		rt = new(RT)
	}
	rt.tmpls.Reset()
	rt.closures.Reset()
	rt.Fetcher.Reset(proto, ep, space)
	*rt = RT{Fetcher: rt.Fetcher, Cfg: cfg, tmpls: rt.tmpls, closures: rt.closures}
	ep.Ctx = rt
	return rt
}

// Stats returns the node's runtime counters.
func (rt *RT) Stats() stats.RTStats { return rt.st }

// Err returns the runtime's degradation error, nil for a clean run.
func (rt *RT) Err() error { return rt.err }

// Template registers a thread body for the rest of the phase and returns the
// id SpawnT takes.
func (rt *RT) Template(fn core.Template) int { return rt.tmpls.Add("blocking", fn) }

// Spawn is SpawnT for a closure, through the shared closure form.
func (rt *RT) Spawn(p gptr.Ptr, fn core.Thread) { rt.closures.Spawn(rt, "blocking", p, fn) }

// SpawnT executes template id on p's object, with the frame words a0 and a1,
// at once. Remote pointers cost a full round trip (TOUCH semantics: issue the
// read and block until it completes), during which the node serves incoming
// requests but performs no local work. A thread whose owner node is
// unreachable is abandoned (counted, surfaced through Err) instead of
// blocking forever.
func (rt *RT) SpawnT(p gptr.Ptr, id int, a0, a1 uint64) {
	tmpl := rt.tmpls.Index("blocking", id)
	if p.IsNil() {
		panic("blocking: Spawn with nil pointer")
	}
	n := rt.EP.Node
	n.Charge(sim.SchedOv, rt.Cfg.SpawnCost)
	rt.st.Spawns++
	if rt.Space.LocalOrRepl(p, n.ID()) {
		rt.st.LocalHits++
	} else if !rt.fetch(p) {
		rt.st.Abandoned++
		return
	}
	rt.st.ThreadsRun++
	n.Touch(p.Key())
	rt.tmpls.Run(tmpl, rt.Space.Get(p), a0, a1)
}

// fetch performs one blocking single-object read. It reports failure when
// the owner is declared unreachable mid-wait, or when a crash-mode wait hears
// nothing from any peer for too long (fm.EP.WaitBounded).
func (rt *RT) fetch(p gptr.Ptr) bool {
	// The blocking runtime holds nothing between accesses, so every
	// repeated access is a refetch.
	rt.Request(p, &rt.st)
	dst := int(p.Node)
	n := rt.EP.Node
	n.SetIdleCategory(sim.FetchStall) // the round-trip wait blocks on a fetch
	defer n.SetIdleCategory(sim.Idle)
	// Nested fetches cannot occur: a spawn runs synchronously and handlers
	// never spawn, so at most one reply is outstanding per node — except
	// for the late reply of an abandoned fetch, which the pointer tag
	// filters out.
	for !rt.replyOK || rt.replyPtr != p {
		rt.replyOK = false
		if rt.EP.Unreachable(dst) {
			if rt.err == nil {
				rt.err = fmt.Errorf("blocking: abandoned fetch from unreachable owner %d: %w",
					dst, fm.ErrUnreachable)
			}
			return false
		}
		// The owner may have crashed after acking the request; keep
		// detection traffic flowing (no-op outside crash fault mode).
		rt.EP.ProbeOwner(dst)
		if rt.EP.WaitBounded() {
			// No peer has sent anything for too long (fm recorded
			// ErrNoProgress): the reply is not coming.
			return false
		}
	}
	rt.replyOK = false
	return true
}

// Drain is a no-op: blocking threads complete at their creation sites. It
// still polls once so that pending service requests are handled promptly.
func (rt *RT) Drain() { rt.EP.Poll() }

// ForAll runs spawnIter for every index in order.
func (rt *RT) ForAll(n int, spawnIter func(i int)) {
	for i := 0; i < n; i++ {
		spawnIter(i)
	}
	rt.Drain()
}
