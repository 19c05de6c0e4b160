package core

import (
	"dpa/internal/obs"
	"dpa/internal/sim"
	"dpa/internal/stats"
)

// This file is the feedback half of adaptive mode: a bounded
// multiplicative-increase/decrease controller that retunes the strip size
// after every strip, and per-destination aggregation limits derived from
// observed round-trip latency. Every decision is a pure function of
// simulated-time counters (cycle charges, fetch/refetch counts, arrival
// times), never of host state, so adaptive runs are bit-identical across
// both engines and across repeats — including under fault injection, whose
// schedule is itself a pure function of the seed. The controller's own
// arithmetic is a handful of integer operations per strip and is treated as
// subsumed by the scheduler costs already charged (see DESIGN.md §8).

// Controller bounds and thresholds. The signals are ratios, so the same
// constants work across workloads; the bounds keep a misbehaving signal from
// running away.
const (
	defaultStripMin  = 8
	defaultStripMax  = 4096
	defaultMemBudget = 4 << 20 // renamed-copy bytes per strip

	// growNum/growDen is the strong-signal growth factor; a weak signal
	// grows by half as much. Shrinking (memory pressure) always halves.
	growNum = 2
	growDen = 1

	// maxTracePoints bounds the per-node adaptation trace.
	maxTracePoints = 64

	// ewmaOld/ewmaDiv: EWMA weight new sample 1/4 (integer arithmetic).
	ewmaOld = 3
	ewmaDiv = 4

	// maxGapSample discards enqueue-gap samples that span a drain wait
	// (they measure stalls, not the request production rate).
	maxGapSample = 1 << 16
)

// stripCtl is the per-node controller state.
type stripCtl struct {
	strip     int // strip size for the next strip
	min, max  int
	memBudget int64
	loop      int32 // index of the current top-level loop on this node

	// Snapshot at the start of the current strip.
	baseFetches   int64
	baseRefetches int64
	baseReqMsgs   int64
	baseArrived   int64
	baseStall     sim.Time
	baseNow       sim.Time
	stripPeak     int64 // peak renamed-copy bytes during the strip
}

// initCtl resolves the controller bounds from the config.
func (rt *RT) initCtl() {
	c := &rt.ctl
	c.strip = rt.Cfg.Strip
	c.min, c.max = rt.Cfg.StripMin, rt.Cfg.StripMax
	if c.min <= 0 {
		c.min = defaultStripMin
	}
	if c.max <= 0 {
		c.max = defaultStripMax
	}
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
	c.baseReqMsgs = rt.st.ReqMsgs
	c.baseArrived = rt.arrivedBytes
	c.baseStall = rt.EP.Node.Charges()[sim.FetchStall]
	c.baseNow = rt.EP.Node.Now()
	c.stripPeak = rt.arrivedBytes
	rt.lastEnq = -1 // enqueue-gap samples do not span strips
}

// stripSignals is one strip's observed communication behaviour, diffed from
// the beginStrip snapshots. It is the shared input of the reactive controller
// (adaptStrip) and the predictive planner's cost model and misprediction
// check (plan.go): both read only simulated-time counters through it.
type stripSignals struct {
	iters        int // top-level iterations the strip admitted
	fetches      int64
	refetches    int64
	msgs         int64
	fetchedBytes int64 // renamed-copy bytes fetched during the strip
	stall        sim.Time
	elapsed      sim.Time
	peakOver     bool // the strip's own copies overflowed the memory budget
}

// stripSignals collects the just-finished strip's signals. Must run before
// any end-of-strip copy release (the byte delta reads arrivedBytes).
func (rt *RT) stripSignals(iters int) stripSignals {
	c := &rt.ctl
	return stripSignals{
		iters:        iters,
		fetches:      rt.st.Fetches - c.baseFetches,
		refetches:    rt.st.Refetches - c.baseRefetches,
		msgs:         rt.st.ReqMsgs - c.baseReqMsgs,
		fetchedBytes: rt.arrivedBytes - c.baseArrived,
		stall:        rt.EP.Node.Charges()[sim.FetchStall] - c.baseStall,
		elapsed:      rt.EP.Node.Now() - c.baseNow,
		peakOver:     c.stripPeak-c.baseArrived > c.memBudget,
	}
}

// controllerNext is the bounded multiplicative-increase/decrease step, the
// reactive half shared by adaptive mode (every strip) and planner mode (only
// on model misprediction):
//
//   - renamed-copy memory above budget shrinks (the paper's reason to
//     strip-mine at all);
//   - a high refetch ratio means the strip boundary is cutting reuse apart
//     — copies dropped at the boundary are fetched again — so grow;
//   - a high fetch-stall fraction means the strip admits too little work to
//     cover its own communication, so grow;
//   - under-filled request batches (objects/message well below the
//     aggregation limit) mean the strip boundary truncates aggregation, so
//     grow;
//   - weak versions of the same signals grow by half the factor, and a
//     quiet strip (little refetch or stall, full batches) holds.
//
// The result is unclamped; callers apply the [min, max] bounds.
func controllerNext(cur int, sig stripSignals, aggBase int64) int {
	switch {
	case sig.peakOver:
		// One strip's own copies overflow the budget: only a smaller strip
		// can bound memory.
		return cur / 2
	case sig.fetches == 0:
		// A purely local strip carries no communication signal.
	case sig.refetches*4 >= sig.fetches ||
		(sig.elapsed > 0 && sig.stall*2 >= sig.elapsed) ||
		(aggBase > 0 && sig.fetches*4 <= sig.msgs*aggBase):
		return cur * 2 * growNum / growDen
	case sig.refetches*16 >= sig.fetches ||
		(sig.elapsed > 0 && sig.stall*4 >= sig.elapsed) ||
		(aggBase > 0 && sig.fetches < sig.msgs*aggBase):
		return cur * growNum / growDen
	}
	return cur
}

// adaptStrip applies the reactive controller after every adaptive strip.
func (rt *RT) adaptStrip() {
	c := &rt.ctl
	sig := rt.stripSignals(0) // iters unused by the controller
	rt.setStrip(controllerNext(c.strip, sig, int64(rt.Cfg.AggLimit)))
}

// setStrip clamps and installs a new strip size, maintaining the grow/shrink
// counters, the adaptation trace, and the KAdapt event stream. A no-op when
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

// forAllAdaptive is the adaptive strip-mined loop: same admit/flush/drain
// structure as the static ForAll, with the controller choosing each strip
// size and a tail-merge absorbing a runt final strip into its predecessor
// (a sub-quarter strip would pay a full drain for almost no work).
func (rt *RT) forAllAdaptive(n int, spawnIter func(i int)) {
	c := &rt.ctl
	if c.strip <= 0 {
		c.strip = n // Strip 0: start with the whole loop as one strip
	}
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
		for i := lo; i < hi; i++ {
			spawnIter(i)
		}
		if rt.Cfg.Pipeline {
			rt.FlushAll()
		}
		rt.Drain()
		rt.endStripAdaptive()
		if rt.trc != nil {
			rt.trc.Event(obs.KStrip, rt.EP.Node.Now(), int64(lo), int64(hi-lo))
		}
		rt.adaptStrip()
		lo = hi
	}
	rt.st.FinalStrip = int64(c.strip)
	c.loop++
}

// AdaptTrace returns this node's strip-adaptation trace (empty in static
// mode). The slice lives in the runtime's arena: copy it to keep it past the
// phase. The driver records node 0's trace on the run.
func (rt *RT) AdaptTrace() []stats.AdaptPoint { return rt.trace }

// destLimit is the per-destination aggregation limit. In adaptive mode it is
// derived from the observed round-trip latency to dst and the local request
// production rate: a buffer should fill in about one RTT, so that request
// batches stream continuously instead of either trickling out (per-message
// overhead) or bunching into one late burst (exposed latency). The result is
// bounded to [AggLimit/2, 8*AggLimit] so a cold or noisy estimate cannot
// stray far from the configured limit.
func (rt *RT) destLimit(d *destState) int {
	base := rt.Cfg.aggLimit()
	if !rt.adaptive || rt.Cfg.AggLimit <= 0 {
		return base // static mode, or unlimited stays unlimited
	}
	if rt.planner {
		// Planner mode predicts the limit from the previous strip's owner
		// histogram instead of reacting to RTT/production-rate EWMAs.
		return rt.plannedDestLimit(d, rt.Cfg.AggLimit)
	}
	rtt, gap := d.rttEwma, rt.gapEwma
	if rtt == 0 || gap == 0 {
		return base
	}
	k := int(rtt / gap)
	if lo := base / 2; k < lo {
		k = lo
	}
	if hi := base * 8; k > hi {
		k = hi
	}
	if k < 1 {
		k = 1
	}
	return k
}

// observeGap feeds the enqueue-interval EWMA (request production rate).
func (rt *RT) observeGap(now sim.Time) {
	if rt.lastEnq >= 0 {
		if gap := now - rt.lastEnq; gap > 0 && gap < maxGapSample {
			if rt.gapEwma == 0 {
				rt.gapEwma = gap
			} else {
				rt.gapEwma = (ewmaOld*rt.gapEwma + gap) / ewmaDiv
			}
		}
	}
	rt.lastEnq = now
}

// observeRTT feeds d's round-trip EWMA. A sample is armed on the first
// in-flight request to the destination (flushDest, adaptive mode only) and
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
