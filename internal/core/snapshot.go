package core

import (
	"cmp"
	"slices"

	"dpa/internal/gptr"
	"dpa/internal/sim"
)

// SnapshotFingerprint folds the record's pointer list (order matters: the
// owner extracts in list order, which decides reply layout and charges). The
// request and its reply are one record, so both directions fingerprint the
// same way, and a retained frame whose record has since come home reads what
// its home node holds in it now.
func (rq *fetchReq) SnapshotFingerprint() uint64 {
	h := uint64(0x66726571) // "freq"
	for _, p := range rq.ptrs {
		h = sim.MixFP(h, p.Key())
	}
	return sim.MixFP(h, uint64(len(rq.ptrs)))
}

// EncodeSnapshot writes the runtime's complete deterministic state: the
// fused M/D table (sorted by pointer key — the slab's first-fetch order must
// not leak into the encoding), aggregation buffers in FIFO order, the ready queue,
// strip and planner state, and the per-phase statistics counters.
// A suspended thread is represented by its count on the table entry: template
// ids, closure slots and slab indices are host-side names that never reach an
// encoding (restore is by deterministic re-execution, so the encoding only
// has to witness equality, not rebuild threads).
func (rt *RT) EncodeSnapshot(w *sim.SnapWriter) {
	w.Int(rt.EP.Node.ID())
	w.Int(rt.waiting)
	w.Int(rt.aggCount)
	w.Int(rt.pendingReplies)
	w.I64(rt.arrivedBytes)
	if rt.err != nil {
		w.Bool(true)
		w.U64(sim.StringFP(rt.err.Error()))
	} else {
		w.Bool(false)
	}

	// Fused M/D table: the live entries, in canonical order.
	live := make([]*dEntry, 0, rt.entries.n)
	for ei := int32(0); ei < rt.entries.n; ei++ {
		if e := rt.entries.at(ei); e.stamp == rt.stamp {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, func(a, b *dEntry) int { return cmp.Compare(a.p.Key(), b.p.Key()) })
	w.Int(len(live))
	for _, e := range live {
		w.U64(e.p.Key())
		w.Bool(e.n == 0)
		w.Int(int(e.n))
		if e.n == 0 {
			w.Int(rt.Space.Get(e.p).ByteSize())
		} else {
			w.Int(-1)
		}
	}

	// Open request records (append order is program order). Every
	// per-destination record below is written through the table's dense
	// view — one entry per machine node, zeros for untouched owners — which
	// is the layout the encoding had when this state was P-length arrays;
	// the planner's records are empty in static mode (dim 0).
	dests := &rt.dests
	dim := 0
	if rt.Cfg.Planned {
		dim = rt.nodes
	}
	w.Int(rt.nodes)
	dests.dense(rt.nodes, func(d *destState) {
		var agg []gptr.Ptr
		if d.req != nil {
			agg = d.req.ptrs
		}
		w.Int(len(agg))
		h := uint64(len(agg))
		for _, p := range agg {
			h = sim.MixFP(h, p.Key())
		}
		w.U64(h)
	})
	w.Int(len(rt.aggDests))
	for _, si := range rt.aggDests {
		w.Int(int(dests.slots[si].owner))
	}
	dests.dense(rt.nodes, func(d *destState) { w.Int(int(d.pending)) })

	// Every pointer fetched so far this phase — the slab holds each once,
	// live or dropped since — in canonical order, folded to a digest (the set
	// can be large).
	fetched := make([]uint64, rt.entries.n)
	for ei := range fetched {
		fetched[ei] = rt.entries.at(int32(ei)).p.Key()
	}
	slices.Sort(fetched)
	h := uint64(len(fetched))
	for _, k := range fetched {
		h = sim.MixFP(h, k)
	}
	w.Int(len(fetched))
	w.U64(h)

	// Ready queue, folded in queue order.
	w.Int(rt.ready.len())
	w.U64(rt.readyFold())

	// Strip and planner state.
	w.Bool(rt.Cfg.Planned)
	c := &rt.ctl
	w.Int(c.strip)
	w.Int(c.min)
	w.Int(c.max)
	w.I64(c.memBudget)
	w.U32(uint32(c.loop))
	w.I64(c.baseFetches)
	w.I64(c.baseRefetches)
	w.I64(c.baseArrived)
	w.Time(c.baseStall)
	w.Time(c.baseNow)
	w.I64(c.stripPeak)
	ps := &rt.plan
	w.U32(uint32(rt.st.PlanStrips))
	w.Bool(ps.modelled)
	w.Bool(ps.overBudget)
	w.Int(dim)
	dests.dense(dim, func(d *destState) {
		w.U32(uint32(d.curHist))
		w.U32(uint32(d.prevHist))
	})
	w.Int(ps.prevIters)
	w.Int(ps.lastIters)
	w.Int(ps.owners)
	w.Time(ps.rttPrior)
	// Cross-phase prior state (prior.go). The attached table itself is
	// fingerprinted here so any divergence in prior contents surfaces in the
	// "rt" section even when the driver does not encode a "priors" section.
	w.Bool(ps.warm)
	w.I64(ps.priorBytes)
	w.U32(uint32(ps.curIter))
	w.I64(ps.phaseIters)
	w.I64(ps.phaseBytes)
	w.Time(ps.phaseBusy)
	w.Time(ps.phaseStall)
	w.Int(dim)
	h2 := uint64(dim)
	dests.dense(dim, func(d *destState) { h2 = sim.MixFP(h2, uint64(d.phaseHist)) })
	w.U64(h2)
	w.Int(len(ps.recAff))
	h2 = uint64(len(ps.recAff))
	for _, v := range ps.recAff {
		h2 = sim.MixFP(h2, uint64(uint32(v)))
	}
	w.U64(h2)
	w.Bool(ps.prior != nil)
	w.U64(ps.prior.fingerprint())
	w.Int(dim)
	dests.dense(dim, func(d *destState) {
		w.Time(d.rttEwma)
		w.Time(d.rttSentAt)
		w.Bool(d.rttMark)
	})
	w.Int(len(rt.trace))
	for _, pt := range rt.trace {
		w.U32(uint32(pt.Loop))
		w.U32(uint32(pt.Strip))
	}

	// Per-phase statistics counters.
	st := &rt.st
	w.I64(st.ThreadsRun)
	w.I64(st.Spawns)
	w.I64(st.LocalHits)
	w.I64(st.Reuses)
	w.I64(st.Fetches)
	w.I64(st.ReqMsgs)
	w.I64(st.PeakOutstanding)
	w.I64(st.PeakArrivedBytes)
	w.I64(st.Abandoned)
	w.I64(st.Refetches)
	w.I64(st.StripGrows)
	w.I64(st.StripShrinks)
	w.I64(st.FinalStrip)
	w.I64(st.PlanStrips)
	w.I64(st.PlanMispredicts)
	w.I64(st.PlanPriorHits)
	w.I64(st.PriorBytes)
	w.I64(st.ShapedRuns)
}

// readyFold folds the ready queue: a thread's identity is its object's key
// (closures re-form on replay), and order matters, so one key per queued
// thread in queue order. A chain queued in place folds its pointer's key once
// per thread left of it, as the copies of its threads would.
func (rt *RT) readyFold() uint64 {
	h := uint64(rt.ready.len())
	rt.ready.each(func(e *readyEntry) {
		h = sim.MixFP(h, e.p.Key())
		for wi := e.iter; e.tmpl < 0 && wi >= 0; wi = rt.waiters.at(wi).next {
			h = sim.MixFP(h, e.p.Key())
		}
	})
	return h
}
