package core

import (
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// This file is the predictive half of planned mode: a closed-form cost model
// that chooses the next strip size and the per-destination aggregation
// limits from one strip's reuse summary, *before* the next strip runs. The
// planner computes the size the signals imply and jumps straight to it; no
// feedback step corrects the proposal afterwards. All inputs are
// simulated-time counters and machine-model constants, so every decision is
// a pure function of simulated-time state and planned runs stay
// bit-identical across engines, repeats, and seeded faults (DESIGN.md §11).
//
// The model balances three communication bounds per strip of S iterations:
//
//	memory    S·bytesPerIter must fit the renamed-copy budget headroom
//	          (copies are kept across strips, see plan.go);
//	latency   S·busyPerIter must cover the fetch pipeline's round trip,
//	          or the drain tail exposes the RTT (pipeline depth vs
//	          lookahead);
//	batching  S·fetchesPerIter spread over the touched owners must fill
//	          each owner's aggregation batch, or the strip boundary
//	          truncates aggregation (per-owner batch under-fill).
//
// The choice is S = clamp(min(S_mem, max(S_lat, S_agg)), min, max): big
// enough to hide latency and fill batches, never so big that one strip's
// copies overflow the budget.

// planState is the per-node planner state: the reuse summary under
// construction (per-owner fetch histogram) and the previous strip's completed
// summary (the prediction source for this strip). The phase's strip count is
// st.PlanStrips.
type planState struct {
	modelled bool // the phase's first strip has been sized (cold or warm)
	// overBudget records that the copies kept across strips exceeded the
	// memory budget at the last boundary (endStripPlanned dropped them all)
	// — a memory-model misprediction even when no single strip overflowed.
	overBudget bool
	// The per-owner fetch histograms live in the destination table:
	// destState.curHist counts fetches during the running strip, prevHist is
	// the finished previous strip's count, read by the per-destination
	// aggregation planner together with prevIters (that strip's iteration
	// count, for scaling predictions to the current strip size). owners
	// counts non-zero curHist entries, maintained incrementally.
	prevIters int // iteration count of the strip behind prevHist
	lastIters int // iteration count of the most recently finished strip
	owners    int
	// rttPrior seeds the latency bound before any round trip completes:
	// the machine model's cost of one request/reply exchange.
	rttPrior sim.Time

	// Cross-phase prior plumbing (prior.go). prior is the table the driver
	// attached for this phase kind (nil: cold phase). priorBytes is the
	// table's footprint, charged against the memory budget headroom.
	prior      *PriorTable
	priorBytes int64
	// warm records that this phase warm-started from a non-empty prior: the
	// prediction source holds measured whole-phase volumes, not a trailing
	// one-strip sample, so plannedDestLimit trusts it past the cold 8×cap.
	warm bool
	// curIter is the original (pre-shaping) index of the top-level iteration
	// whose thread tree is currently executing (-1 outside planned loops);
	// recAff is the affinity array it attributes into, first-wins.
	curIter int32
	recAff  []int32
	// Whole-phase accumulators for the fold: the per-strip signal sums
	// (planStrip adds each finished strip's signals); the per-owner fetch
	// totals are destState.phaseHist.
	phaseIters int64
	phaseBytes int64
	phaseBusy  sim.Time
	phaseStall sim.Time
	// Permutation scratch for affinity-shaped loops, reused across loops.
	perm []int32
}

// init derives the RTT prior from the machine configuration (send + transit
// each way, plus the receiver's extraction and handler dispatch).
func (ps *planState) init(cfg *machine.Config) {
	ps.rttPrior = 2*(cfg.SendOverhead+cfg.LatencyBase) + cfg.RecvOverhead + cfg.HandlerCost
	ps.curIter = -1
}

// planRTT is the round-trip estimate the latency bound amortizes against:
// the mean of the observed per-destination EWMAs, or the machine-model prior
// while no round trip has completed. Deterministic: an integer sum over
// simulated-time samples, which no visiting order can change.
func (rt *RT) planRTT() sim.Time {
	var sum sim.Time
	var n int
	for i := range rt.dests.slots {
		if v := rt.dests.slots[i].rttEwma; v > 0 {
			sum += v
			n++
		}
	}
	if n > 0 {
		return sum / sim.Time(n)
	}
	return rt.plan.rttPrior
}

// planPropose evaluates the cost model on the just-finished strip's signals
// and returns the unclamped strip size for the next strip (setStrip applies
// the bounds).
func (rt *RT) planPropose(sig stripSignals) int {
	c := &rt.ctl
	if sig.fetches == 0 || sig.iters <= 0 {
		// An all-local/all-reuse strip fetches nothing: its boundaries are
		// pure overhead and carry no memory cost, so the widest strip is
		// optimal. (If a later strip does fetch, the model re-sizes from
		// that strip's measurements; an overshoot is counted as a
		// misprediction.)
		return c.max
	}
	iters := int64(sig.iters)

	// Latency bound: the strip's local work must cover one pipelined fetch
	// round trip with a factor-2 margin, or the closing drain exposes it.
	busy := sig.elapsed - sig.stall
	busyPerIter := busy / sim.Time(iters)
	if busyPerIter < 1 {
		busyPerIter = 1
	}
	s := int(2*rt.planRTT()/busyPerIter) + 1

	// Batching bound: enough iterations that every touched owner's
	// aggregation batch fills several times over (fetches/iters per
	// iteration, spread over `owners` destinations, batch size AggLimit).
	// One fill per strip is not enough — every strip boundary still flushes
	// one under-filled runt per owner, so the fills must outnumber the runts
	// (aggFills of them) for the runts to amortize away.
	if agg := int64(rt.Cfg.AggLimit); agg > 0 && rt.plan.owners > 0 {
		if sAgg := int(iters * agg * int64(rt.plan.owners) * aggFills / sig.fetches); sAgg > s {
			s = sAgg
		}
	}

	// Memory bound: the next strip's new copies must fit the budget
	// headroom left by the copies this boundary kept and the cross-phase
	// prior table's own footprint (the table lives in the same per-node
	// memory the budget models). The floor keeps a nearly-full table from
	// collapsing the strip to nothing: a table over the budget is dropped
	// whole at the next boundary.
	if bpi := (sig.fetchedBytes + iters - 1) / iters; bpi > 0 {
		head := c.memBudget - rt.arrivedBytes - rt.plan.priorBytes
		if floor := c.memBudget / 4; head < floor {
			head = floor
		}
		if sMem := int(head / bpi); sMem < s {
			s = sMem
		}
	}
	return s
}

// aggFills is the batching bound's amortization target: a planned strip
// should fill each touched owner's aggregation batch about this many times,
// so the one under-filled runt each boundary flushes per owner stays a small
// fraction of the owner's request traffic.
const aggFills = 4

// plannedDestLimit is planned mode's per-destination aggregation limit: the
// previous strip's owner histogram, scaled to the current strip size,
// predicts how many pointers this strip will send to dst; the limit batches
// that volume into as few messages as the 8×base cap allows. Per-message
// overhead (send + receive + handler on both the request and its reply)
// dominates the sliver of overlap an early under-filled flush would buy
// inside one strip — the planner sizes strips so the strip-end FlushAll
// still pipelines ahead of the drain — so a volume within the cap rides one
// batch, and with no prediction at all the limit IS the cap: never
// fragment on a guess. Only a predicted-heavy owner (volume above the cap)
// splits, evenly, which restores eager mid-strip streaming exactly where
// there is enough traffic to hide it.
func (rt *RT) plannedDestLimit(d *destState, base int) int {
	hi := base * 8
	ps := &rt.plan
	h := int(d.prevHist)
	if h <= 0 || ps.prevIters <= 0 {
		return hi // no prediction for this owner: batch maximally
	}
	h = h * rt.ctl.strip / ps.prevIters
	if h <= hi {
		return hi // one batch carries the whole predicted volume
	}
	if ps.warm {
		// Cross-phase prior (prior.go): the prediction is a measured
		// whole-phase volume, not a one-strip extrapolation, so there is no
		// cold cap to respect — batch the owner's entire predicted strip
		// volume into one message. With affinity shaping the owner's
		// iterations arrive as one contiguous run, so the batch fills exactly
		// once per strip and flushes the moment the run completes.
		return h
	}
	nb := (h + hi - 1) / hi
	return (h + nb - 1) / nb
}
