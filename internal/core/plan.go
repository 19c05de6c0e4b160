package core

import (
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// This file wires the predictive planner (planmodel.go) into the strip-mined
// loop: the per-node strip state and its bounds, the planned ForAll, and what
// becomes of renamed copies at a strip boundary. Every strip size is
// the cost model's proposal clamped to [StripMin, StripMax]; a strip whose
// outcome breaks a model promise is counted (PlanMispredicts), not corrected.
// Every decision is a pure function of simulated-time counters (cycle charges,
// fetch/refetch counts, arrival times), never of host state, so planned runs
// are bit-identical across both engines and across repeats — including under
// fault injection, whose schedule is itself a pure function of the seed. See
// DESIGN.md §11.
//
// # Reuse regions
//
// A copy's reuse region is the span of strips from its fetch to its last
// reference. While the renamed copies fit the memory budget, a strip boundary
// drops none of them, so every region stays open until the phase ends and a
// pointer is fetched once per phase: refetch traffic is structurally zero.
// A boundary over the budget drops every copy, as the static strip does, and
// counts the strip as a memory-model misprediction; a pointer referenced
// again after that drop is refetched.

// Strip bounds and planner constants.
const (
	defaultStripMin  = 8
	defaultStripMax  = 4096
	defaultMemBudget = 4 << 20 // renamed-copy bytes

	// maxTracePoints bounds the per-node strip-size trace.
	maxTracePoints = 64

	// ewmaOld/ewmaDiv: round-trip EWMA weight of a new sample 1/4 (integer
	// arithmetic).
	ewmaOld = 3
	ewmaDiv = 4
)

// stripCtl is the per-node strip state.
type stripCtl struct {
	strip     int // strip size for the next strip
	min, max  int
	memBudget int64
	loop      int32 // index of the current top-level loop on this node

	// Snapshot at the start of the current strip.
	baseFetches   int64
	baseRefetches int64
	baseArrived   int64
	baseStall     sim.Time
	baseNow       sim.Time
	stripPeak     int64 // peak renamed-copy bytes during the strip
}

// initCtl resolves the strip bounds and memory budget from the config.
func (rt *RT) initCtl() {
	c := &rt.ctl
	c.strip = rt.Cfg.Strip
	c.min, c.max = rt.Cfg.stripBounds()
	c.memBudget = rt.Cfg.MemBudget
	if c.memBudget <= 0 {
		c.memBudget = defaultMemBudget
	}
}

// beginStrip snapshots the counters the end-of-strip decision diffs against.
func (rt *RT) beginStrip() {
	c := &rt.ctl
	c.baseFetches = rt.st.Fetches
	c.baseRefetches = rt.st.Refetches
	c.baseArrived = rt.arrivedBytes
	c.baseStall = rt.EP.Node.Charges()[sim.FetchStall]
	c.baseNow = rt.EP.Node.Now()
	c.stripPeak = rt.arrivedBytes
}

// stripSignals is one strip's observed communication behaviour, diffed from
// the beginStrip snapshots: the input of the cost model and the misprediction
// count, both of which read only simulated-time counters through it.
type stripSignals struct {
	iters        int // top-level iterations the strip admitted
	fetches      int64
	refetches    int64
	fetchedBytes int64 // renamed-copy bytes fetched during the strip
	stall        sim.Time
	elapsed      sim.Time
	peakOver     bool // the strip's own copies overflowed the memory budget
}

// stripSignals collects the just-finished strip's signals. Must run before
// the end-of-strip drop (the byte delta reads arrivedBytes).
func (rt *RT) stripSignals(iters int) stripSignals {
	c := &rt.ctl
	return stripSignals{
		iters:        iters,
		fetches:      rt.st.Fetches - c.baseFetches,
		refetches:    rt.st.Refetches - c.baseRefetches,
		fetchedBytes: rt.arrivedBytes - c.baseArrived,
		stall:        rt.EP.Node.Charges()[sim.FetchStall] - c.baseStall,
		elapsed:      rt.EP.Node.Now() - c.baseNow,
		peakOver:     c.stripPeak-c.baseArrived > c.memBudget,
	}
}

// setStrip clamps and installs a new strip size, maintaining the grow/shrink
// counters, the strip-size trace, and the KAdapt event stream. A no-op when
// the clamped size equals the current one.
func (rt *RT) setStrip(next int) {
	c := &rt.ctl
	if next < c.min {
		next = c.min
	}
	if next > c.max {
		next = c.max
	}
	if next == c.strip {
		return
	}
	if next > c.strip {
		rt.st.StripGrows++
	} else {
		rt.st.StripShrinks++
	}
	if len(rt.trace) < maxTracePoints {
		rt.trace = append(rt.trace, stats.AdaptPoint{Loop: c.loop, Strip: int32(next)})
	}
	if rt.trc != nil {
		rt.trc.Event(obs.KAdapt, rt.EP.Node.Now(), int64(next), int64(c.loop))
	}
	c.strip = next
}

// AdaptTrace returns this node's strip-size trace (empty in static mode). The
// slice is runtime storage the next phase reuses: copy it to keep it. The
// driver records node 0's trace on the run.
func (rt *RT) AdaptTrace() []stats.AdaptPoint { return rt.trace }

// observeRTT feeds d's round-trip EWMA. A sample is armed on the first
// in-flight request to the destination (flushDest, planned mode only) and
// closed by its first reply, so queueing behind earlier requests never
// inflates it.
func observeRTT(d *destState, now sim.Time) {
	if !d.rttMark {
		return
	}
	d.rttMark = false
	s := now - d.rttSentAt
	if d.rttEwma == 0 {
		d.rttEwma = s
	} else {
		d.rttEwma = (ewmaOld*d.rttEwma + s) / ewmaDiv
	}
}

// destLimit is the per-destination aggregation limit: the configured one in
// static mode (and whenever it is unlimited), the planner's prediction from
// the previous strip's owner histogram otherwise.
func (rt *RT) destLimit(d *destState) int {
	if !rt.Cfg.Planned || rt.Cfg.AggLimit <= 0 {
		return rt.Cfg.aggLimit()
	}
	return rt.plannedDestLimit(d, rt.Cfg.AggLimit)
}

// beginPlanStrip rolls the reuse summary: the finished strip's owner
// histogram becomes the prediction source (prevHist) and the new strip
// starts counting afresh.
func (rt *RT) beginPlanStrip() {
	ps := &rt.plan
	for i := range rt.dests.slots {
		d := &rt.dests.slots[i]
		d.prevHist, d.curHist = d.curHist, 0
	}
	ps.prevIters = ps.lastIters
	ps.owners = 0
}

// forAllPlanned is the planner's strip-mined loop: the same
// admit/flush/drain structure as the static ForAll, with the cost model
// choosing each strip size at the boundary before the strip runs and a
// tail-merge absorbing a runt final strip into its predecessor (a
// sub-quarter strip would pay a full drain for almost no work).
func (rt *RT) forAllPlanned(n int, spawnIter func(i int)) {
	c := &rt.ctl
	if !rt.plan.modelled {
		// First contact within this phase: try the cross-phase prior first
		// (planWarmStart sizes the first strip from the previous phase's
		// measured signals and stages its owner histogram as the prediction
		// source). With no usable prior the reuse summary is empty and the
		// cost model's only evidence-free bound is memory — enforced at each
		// boundary by the over-budget drop. Every strip
		// boundary is pure overhead under zero evidence of pressure (the
		// fetches==0 branch of the model), so plan the whole loop as one
		// strip, bounded by the configured maximum. This is what "zero
		// warm-up strips" means: the first strip is already model-chosen,
		// not cfg.Strip.
		if rt.plan.prior == nil || !rt.planWarmStart(n) {
			s := n
			if s > c.max {
				s = c.max
			}
			rt.setStrip(s)
			rt.plan.modelled = true
		}
	}
	// Affinity shaping (prior.go): a usable prior reorders the iteration
	// space into owner-major runs; recording refreshes the affinity arrays
	// for the next phase either way. perm==nil spawns in identity order.
	perm := rt.planShape(n)
	rt.beginLoopAffinity(n)
	rec := rt.plan.recAff != nil
	for lo := 0; lo < n; {
		s := c.strip
		hi := lo + s
		if rem := n - hi; rem > 0 && rem < s/4 {
			hi = n
		}
		if hi > n {
			hi = n
		}
		rt.beginStrip()
		rt.beginPlanStrip()
		for i := lo; i < hi; i++ {
			it := i
			if perm != nil {
				it = int(perm[i])
			}
			if rec {
				rt.plan.curIter = int32(it)
			}
			spawnIter(it)
		}
		if rec {
			rt.plan.curIter = -1
		}
		if rt.Cfg.Pipeline {
			rt.FlushAll()
		}
		rt.Drain()
		sig := rt.stripSignals(hi - lo) // before a drop zeroes arrivedBytes
		rt.plan.lastIters = hi - lo
		rt.endStripPlanned()
		if rt.trc != nil {
			rt.trc.Event(obs.KStrip, rt.EP.Node.Now(), int64(lo), int64(hi-lo))
		}
		rt.planStrip(sig)
		lo = hi
	}
	rt.st.FinalStrip = int64(c.strip)
	c.loop++
}

// endStripPlanned closes a strip: every renamed copy stays while the table
// fits the memory budget; over it, the memory model mispredicted, so every
// copy is dropped and the misprediction flagged for planStrip.
func (rt *RT) endStripPlanned() {
	rt.checkStripInvariant()
	if rt.arrivedBytes > rt.ctl.memBudget {
		rt.plan.overBudget = true
		rt.dropCopies()
	}
}

// planMispredicted checks the model's promise against the strip's outcome:
// either the strip's own copies overflowed the budget (memory bound wrong),
// the copies kept across strips did (endStripPlanned dropped them all), a
// refetch occurred (a copy dropped by an earlier boundary was needed again —
// the fetch-once contract broke), or the model claimed the latency bound was
// covered yet the strip spent half its time stalled.
func (rt *RT) planMispredicted(sig stripSignals, proposal, cur int) bool {
	if sig.peakOver || rt.plan.overBudget {
		return true
	}
	if sig.refetches > 0 {
		return true
	}
	return sig.fetches > 0 && sig.elapsed > 0 && sig.stall*2 >= sig.elapsed && proposal <= cur
}

// planStrip is the planner's boundary decision: evaluate the cost model on
// the finished strip's signals and install its proposal, clamped to the
// strip bounds. A strip that broke a model promise is counted in
// PlanMispredicts; nothing corrects the proposal. The decision is recorded
// as a KPlan event and in the planner counters.
func (rt *RT) planStrip(sig stripSignals) {
	c := &rt.ctl
	// Accumulate the phase totals the seam fold (FoldPrior) publishes as the
	// next phase's warm-start signals.
	ps := &rt.plan
	ps.phaseIters += int64(sig.iters)
	ps.phaseBytes += sig.fetchedBytes
	ps.phaseBusy += sig.elapsed - sig.stall
	ps.phaseStall += sig.stall
	proposal := rt.planPropose(sig)
	if rt.planMispredicted(sig, proposal, c.strip) {
		rt.st.PlanMispredicts++
	}
	ps.overBudget = false
	rt.setStrip(proposal)
	rt.st.PlanStrips++
	if rt.trc != nil {
		rt.trc.Event(obs.KPlan, rt.EP.Node.Now(), int64(c.strip), int64(c.loop))
	}
}
