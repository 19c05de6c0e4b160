package core

import (
	"dpa/internal/gptr"
	"dpa/internal/obs"
)

// This file wires the predictive planner (planmodel.go) into the strip-mined
// loop: the planned ForAll variant, the reuse-region lifecycle of renamed
// copies in the D-table, and the misprediction hand-off to the bounded
// reactive controller (adapt.go). See DESIGN.md §11.
//
// # Reuse regions
//
// Every D-table entry is stamped with the strip index of its last reference
// (dEntry.lastUse, written at Spawn). A copy's reuse region is the span of
// strips from its fetch to its last reference; the region is known to be
// closed once a full strip passes without a reference. At a strip boundary
// the planner releases only closed regions, and only under memory pressure —
// an open region is never released, so a pointer referenced in consecutive
// (or any budget-respecting pattern of) strips is fetched exactly once per
// region and refetch traffic is structurally zero, not asymptotically zero
// like the reactive controller's retention heuristic.

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
// admit/flush/drain structure as the static and adaptive ForAll variants
// (including the runt tail-merge), with the cost model choosing each strip
// size at the boundary before the strip runs.
func (rt *RT) forAllPlanned(n int, spawnIter func(i int)) {
	c := &rt.ctl
	if !rt.plan.planned {
		// First contact within this phase: try the cross-phase prior first
		// (planWarmStart sizes the first strip from the previous phase's
		// measured signals and stages its owner histogram as the prediction
		// source). With no usable prior the reuse summary is empty and the
		// cost model's only evidence-free bound is memory — enforced
		// reactively by the misprediction hand-off. Every strip boundary is
		// pure overhead under zero evidence of pressure (the fetches==0
		// branch of the model), so plan the whole loop as one strip, bounded
		// by the configured maximum. This is what "zero warm-up strips"
		// means: the first strip is already model-chosen, not cfg.Strip.
		if rt.plan.prior == nil || !rt.planWarmStart(n) {
			s := n
			if s > c.max {
				s = c.max
			}
			rt.setStrip(s)
			rt.plan.planned = true
		}
	}
	if c.strip <= 0 {
		c.strip = n // Strip 0: start with the whole loop as one strip
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
		sig := rt.stripSignals(hi - lo) // before releases mutate arrivedBytes
		rt.plan.lastIters = hi - lo
		rt.endStripPlanned()
		if rt.trc != nil {
			rt.trc.Event(obs.KStrip, rt.EP.Node.Now(), int64(lo), int64(hi-lo))
		}
		rt.planStrip(sig)
		rt.plan.stripIdx++
		lo = hi
	}
	rt.st.FinalStrip = int64(c.strip)
	c.loop++
}

// endStripPlanned closes a strip under the reuse-region discipline: every
// renamed copy stays pinned while the table fits the memory budget; under
// pressure, exactly the copies whose reuse region has closed (no reference
// in the strip that just finished) are released. If the live regions alone
// still exceed the budget, the memory model mispredicted — fall back to the
// wholesale drop and flag the misprediction for planStrip. Both map scans
// have order-independent effects (deletions and commutative sums), so map
// iteration order cannot perturb determinism.
func (rt *RT) endStripPlanned() {
	rt.checkStripInvariant()
	if rt.arrivedBytes <= rt.ctl.memBudget {
		return
	}
	cur := rt.plan.stripIdx
	if w := rt.plan.retainGap; w > 1 {
		// Reuse-gap prior (prior.go): last phase re-referenced live copies
		// after idle spans of up to w strips, so a copy idle for w strips or
		// fewer may well still be live — releasing it would break the
		// exactly-once contract with a refetch. Release the provably stale
		// tail first (idle longer than the observed ceiling); only when that
		// is not enough fall back to the closed-region rule below.
		for p, ei := range rt.table {
			if cur-rt.entries[ei].lastUse > w {
				rt.release(p, ei)
			}
		}
		if rt.arrivedBytes <= rt.ctl.memBudget {
			return
		}
	}
	for p, ei := range rt.table {
		if rt.entries[ei].lastUse < cur {
			rt.release(p, ei)
		}
	}
	if rt.arrivedBytes > rt.ctl.memBudget {
		rt.plan.overBudget = true
		rt.dropCopies()
	}
}

// release drops p's arrived copy, whose reuse region has closed.
func (rt *RT) release(p gptr.Ptr, ei int32) {
	rt.arrivedBytes -= int64(rt.entries[ei].obj.ByteSize())
	rt.forget(p, ei)
	rt.st.RegionReleases++
}

// planMispredicted checks the model's promise against the strip's outcome:
// the strip was model-sized, and either its own copies overflowed the budget
// (memory bound wrong), the live reuse regions did (endStripPlanned fell
// back to a wholesale drop), a refetch occurred (a region was released while
// still live — the exactly-once contract broke), or the model claimed the
// latency bound was covered yet the strip spent half its time stalled.
func (rt *RT) planMispredicted(sig stripSignals, proposal, cur int) bool {
	if !rt.plan.planned {
		return false // first strip: the model had no hand in its size
	}
	if sig.peakOver || rt.plan.overBudget {
		return true
	}
	if sig.refetches > 0 {
		return true
	}
	if sig.fetches > 0 && sig.elapsed > 0 && sig.stall*2 >= sig.elapsed && proposal <= cur {
		return true
	}
	return false
}

// planStrip is the planner's boundary decision: evaluate the cost model on
// the finished strip's signals and install its proposal — unless the model
// mispredicted, in which case the bounded reactive controller takes one
// corrective step instead (planner proposes, controller corrects). The
// decision is recorded as a KPlan event and in the planner counters.
func (rt *RT) planStrip(sig stripSignals) {
	c := &rt.ctl
	if ps := &rt.plan; ps.priorOn {
		// Accumulate the phase totals the seam fold (FoldPrior) publishes as
		// the next phase's warm-start signals.
		ps.phaseIters += int64(sig.iters)
		ps.phaseBytes += sig.fetchedBytes
		ps.phaseBusy += sig.elapsed - sig.stall
		ps.phaseStall += sig.stall
	}
	cur := c.strip
	proposal := rt.planPropose(sig)
	next := proposal
	if rt.planMispredicted(sig, proposal, cur) {
		rt.st.PlanMispredicts++
		next = controllerNext(cur, sig, int64(rt.Cfg.AggLimit))
	}
	rt.plan.overBudget = false
	rt.setStrip(next)
	rt.plan.planned = true
	rt.st.PlanStrips++
	if rt.trc != nil {
		rt.trc.Event(obs.KPlan, rt.EP.Node.Now(), int64(c.strip), int64(c.loop))
	}
}
