package core

import (
	"math"

	"dpa/internal/obs"
	"dpa/internal/sim"
)

// This file is the cross-phase half of planned mode (DESIGN.md §13): a
// compact per-(phase-kind, node) prior table that survives phase boundaries
// in the driver, so a repeated phase starts from measured history instead of
// the cold machine-model prior. At each phase end the driver folds the
// phase's reuse summary — per-owner fetch totals, round-trip EWMAs,
// byte/iteration volumes, and per-loop owner-affinity arrays — into the
// table; at the next phase's first loop the planner seeds its state back out
// of it:
//
//	strip      the first strip is sized by the same cost model as every
//	           later strip, fed the prior phase's aggregate signals — zero
//	           first-contact strips;
//	destLimit  the per-owner histogram is staged as the prediction source,
//	           so aggregation batches are pre-sized from measured volumes
//	           instead of the cold 8×base cap;
//	shape      per-loop affinity arrays reorder iterations into owner-major
//	           runs at plan time, so each owner's batch fills in contiguous
//	           runs instead of interleaved dribbles.
//
// Every field of the table is a pure function of simulated-time state (the
// fold runs at the phase seam in node-index order, and reads only counters
// and EWMAs that are themselves virtual-time-pure), so priors preserve the
// bit-identical equivalence contract across engines, repeats, faults, and
// checkpoints.

// PriorOwner is one owner's record in a prior table: the fetch volume the
// phase directed at that owner and the round-trip EWMA observed against it.
// Kept to two words — the modelled table holds one per node.
type PriorOwner struct {
	Fetches int64
	RTT     sim.Time
}

// priorRec is a PriorOwner stored for an owner the phase touched.
type priorRec struct {
	owner int32
	PriorOwner
}

// PriorTable is one node's cross-phase planner prior for one phase kind.
// The driver owns the table (it outlives the per-phase runtime) and attaches
// it before the phase body runs; FoldPrior refreshes it at the phase seam.
type PriorTable struct {
	// Phases counts folds; zero means the table is still cold.
	Phases int64
	// Aggregate signals of the most recently folded phase, the synthetic
	// strip the warm start feeds the cost model.
	Iters   int64
	Fetches int64
	Bytes   int64
	Busy    sim.Time
	Stall   sim.Time
	// nodes is the machine size of the last fold. The modelled per-owner
	// record is dense — one PriorOwner per node, zero for an owner the phase
	// never touched — and charged so; owners stores only the touched owners'
	// records, in ascending owner order: stored sparse, charged dense.
	nodes  int32
	owners []priorRec
	// Affinity[l][i] is the predicted owner of iteration i of top-level
	// loop l (-1: no remote reference was attributed). scratch is the
	// recording side for the running phase; FoldPrior swaps the two, so
	// steady state allocates nothing.
	Affinity [][]int32
	scratch  [][]int32
}

// priorOwnerBytes and priorTableBytes are the sizes the PriorBytes accounting
// charges per modelled owner record and per table; the sizeof regression test
// pins them to the actual struct layouts.
const (
	priorOwnerBytes = 16
	priorTableBytes = 128
)

// Empty reports whether the table has never been folded into.
func (pt *PriorTable) Empty() bool { return pt == nil || pt.Phases == 0 }

// ByteSize is the memory the modelled table pins across phases, owner
// records dense. It is charged against the planner's renamed-copy memory
// budget (the table competes with renamed copies for the same footprint) and
// reported as PriorBytes.
func (pt *PriorTable) ByteSize() int64 {
	if pt == nil {
		return 0
	}
	b := int64(priorTableBytes) + int64(pt.nodes)*priorOwnerBytes
	for _, a := range pt.Affinity {
		b += int64(len(a)) * 4
	}
	for _, a := range pt.scratch {
		b += int64(len(a)) * 4
	}
	return b
}

// Clone returns a deep copy of the table, both affinity sides included —
// the driver clones a prior store for the cross-engine validation run so
// the two runs never record into shared arrays.
func (pt *PriorTable) Clone() *PriorTable {
	c := *pt
	c.owners = append([]priorRec(nil), pt.owners...)
	c.Affinity = cloneAff(pt.Affinity)
	c.scratch = cloneAff(pt.scratch)
	return &c
}

func cloneAff(a [][]int32) [][]int32 {
	if a == nil {
		return nil
	}
	out := make([][]int32, len(a))
	for i, s := range a {
		out[i] = append([]int32(nil), s...)
	}
	return out
}

// record returns the recording affinity array for loop l, sized to n and
// reset to "unattributed". Arrays are recycled across phases via the
// Affinity/scratch swap in FoldPrior, so a phase structure that repeats
// (same loops, same lengths) records without allocating.
func (pt *PriorTable) record(l, n int) []int32 {
	for len(pt.scratch) <= l {
		pt.scratch = append(pt.scratch, nil)
	}
	a := pt.scratch[l]
	if cap(a) < n {
		a = make([]int32, n)
	}
	a = a[:n]
	for i := range a {
		a[i] = -1
	}
	pt.scratch[l] = a
	return a
}

// fingerprint folds the table into a digest for snapshot encodings. Slice
// order is structural (owners by node in the dense view, affinity by loop and
// iteration), so the digest is deterministic.
func (pt *PriorTable) fingerprint() uint64 {
	if pt == nil {
		return 0
	}
	h := uint64(0x70726972) // "prir"
	h = sim.MixFP(h, uint64(pt.Phases))
	h = sim.MixFP(h, uint64(pt.Iters))
	h = sim.MixFP(h, uint64(pt.Fetches))
	h = sim.MixFP(h, uint64(pt.Bytes))
	h = sim.MixFP(h, uint64(pt.Busy))
	h = sim.MixFP(h, uint64(pt.Stall))
	recs := pt.owners
	for o := int32(0); o < pt.nodes; o++ {
		var r PriorOwner
		if len(recs) > 0 && recs[0].owner == o {
			r, recs = recs[0].PriorOwner, recs[1:]
		}
		h = sim.MixFP(h, uint64(r.Fetches))
		h = sim.MixFP(h, uint64(r.RTT))
	}
	for _, side := range [2][][]int32{pt.Affinity, pt.scratch} {
		h = sim.MixFP(h, uint64(len(side)))
		for _, a := range side {
			h = sim.MixFP(h, uint64(len(a)))
			for _, v := range a {
				h = sim.MixFP(h, uint64(uint32(v)))
			}
		}
	}
	return h
}

// EncodeSnapshot writes the table for the driver's "priors" snapshot
// section: the aggregate signals in full (they drive warm-start decisions)
// and the per-owner and affinity sides as digests.
func (pt *PriorTable) EncodeSnapshot(w *sim.SnapWriter) {
	w.I64(pt.Phases)
	w.I64(pt.Iters)
	w.I64(pt.Fetches)
	w.I64(pt.Bytes)
	w.Time(pt.Busy)
	w.Time(pt.Stall)
	w.Int(int(pt.nodes))
	w.U64(pt.fingerprint())
}

// AttachPrior hands the runtime its cross-phase prior table for the phase
// about to run. Called by the driver before the phase body; a nil table or a
// static spec leaves planning exactly as cold as before. Attaching seeds the
// per-destination RTT EWMAs from last phase's observations (warming the
// latency bound); the strip and histogram seeding happens lazily at the
// first planned loop (planWarmStart), where the loop bounds are known.
func (rt *RT) AttachPrior(pt *PriorTable) {
	if !rt.Cfg.Planned || pt == nil {
		return
	}
	ps := &rt.plan
	ps.prior = pt
	if !pt.Empty() {
		// Ascending owner order, as the dense walk had: first touch fixes
		// slot order.
		for _, r := range pt.owners {
			if int(r.owner) < rt.nodes && r.RTT > 0 {
				rt.dests.touch(int(r.owner)).rttEwma = r.RTT
			}
		}
	}
	ps.priorBytes = pt.ByteSize()
	rt.st.PriorBytes = ps.priorBytes
}

// FoldPrior folds the finished phase's reuse summary into the attached prior
// table. The driver calls it at the phase seam, after the phase has fully
// drained, in node-index order; every input is a simulated-time counter, so
// the fold is a pure function of simulated history. Steady state allocates
// nothing: the owner records reuse their slice and the affinity arrays
// recycle through the Affinity/scratch swap.
func (rt *RT) FoldPrior() {
	ps := &rt.plan
	pt := ps.prior
	if pt == nil {
		return
	}
	pt.Phases++
	pt.Iters = ps.phaseIters
	pt.Fetches = rt.st.Fetches
	pt.Bytes = ps.phaseBytes
	pt.Busy = ps.phaseBusy
	pt.Stall = ps.phaseStall
	pt.nodes = int32(rt.nodes)
	pt.owners = pt.owners[:0]
	for _, si := range rt.dests.byOwner {
		d := &rt.dests.slots[si]
		pt.owners = append(pt.owners, priorRec{d.owner, PriorOwner{Fetches: d.phaseHist, RTT: d.rttEwma}})
	}
	// The arrays recorded this phase become the prior; the displaced prior
	// arrays become next phase's recording scratch.
	pt.Affinity, pt.scratch = pt.scratch, pt.Affinity
	ps.recAff = nil
	rt.st.PriorBytes = pt.ByteSize()
}

// planWarmStart seeds the planner from the cross-phase prior at the first
// planned loop of a repeated phase. The per-owner fetch totals are staged in
// the running histogram so the very first beginPlanStrip promotes them to
// the prediction source — plannedDestLimit batches from measured volumes,
// uncapped, instead of the cold 8×base cap. The first strip takes whichever
// is larger of the cold choice (the whole loop, bounded by the configured
// maximum) and the cost model's proposal on a synthetic strip made of the
// prior phase's aggregate signals: history may widen the first strip (e.g. a
// latency bound fed real RTTs) but never narrows it below the cold plan —
// the cold whole-loop strip is the zero-refetch schedule the planner already
// promises, and a narrower history-guessed strip would trade structural
// zero-refetch for a memory model's extrapolation. Reports whether the prior
// was usable.
func (rt *RT) planWarmStart(n int) bool {
	ps := &rt.plan
	pt := ps.prior
	if pt.Empty() || pt.Fetches == 0 || pt.Iters <= 0 {
		return false
	}
	// The staged histogram replaces whatever the running one held for the
	// owners the table covers.
	for i := range rt.dests.slots {
		if d := &rt.dests.slots[i]; d.owner < pt.nodes {
			d.curHist = 0
		}
	}
	owners := 0
	for _, r := range pt.owners {
		if int(r.owner) >= rt.nodes {
			break
		}
		f := r.Fetches
		if f <= 0 {
			continue
		}
		if f > math.MaxInt32 {
			f = math.MaxInt32
		}
		rt.dests.touch(int(r.owner)).curHist = int32(f)
		owners++
	}
	ps.owners = owners
	ps.lastIters = int(pt.Iters)
	sig := stripSignals{
		iters:        int(pt.Iters),
		fetches:      pt.Fetches,
		fetchedBytes: pt.Bytes,
		stall:        pt.Stall,
		elapsed:      pt.Busy + pt.Stall,
	}
	s := n
	if s > rt.ctl.max {
		s = rt.ctl.max
	}
	if p := rt.planPropose(sig); p > s {
		s = p
	}
	rt.setStrip(s)
	ps.modelled = true
	ps.warm = true
	rt.st.PlanPriorHits++
	if rt.trc != nil {
		rt.trc.Event(obs.KPrior, rt.EP.Node.Now(), int64(rt.ctl.strip), int64(rt.ctl.loop))
	}
	return true
}

// beginLoopAffinity installs the recording affinity array for the coming
// loop (first remote owner touched per top-level iteration, first-wins).
// Recording is on whenever a prior table is attached, whether or not shaping
// consumes it — the affinity side of the table must stay fresh for the next
// phase even on phases where shaping declined.
func (rt *RT) beginLoopAffinity(n int) {
	ps := &rt.plan
	if ps.prior == nil {
		ps.recAff = nil
		return
	}
	ps.recAff = ps.prior.record(int(rt.ctl.loop), n)
}

// planShape returns the owner-major iteration permutation for the coming
// loop, or nil when no usable affinity prior exists (cold table, or the
// loop's iteration count changed since last phase — a repartitioned loop
// gets identity order rather than a stale shuffle). The
// permutation is a counting sort of iteration indices by predicted owner —
// unattributed iterations first, then owners ascending, stable within each
// owner — so same-owner spawns run back to back and each owner's aggregation
// batch fills in one contiguous run per strip instead of round-robin
// dribbles. A pure function of the prior, which is itself simulated-time
// state, so shaped runs stay bit-identical.
func (rt *RT) planShape(n int) []int32 {
	ps := &rt.plan
	pt := ps.prior
	if pt.Empty() {
		return nil
	}
	l := int(rt.ctl.loop)
	if l >= len(pt.Affinity) || len(pt.Affinity[l]) != n {
		return nil
	}
	aff := pt.Affinity[l]
	// The destination table's shape cursors are the per-owner buckets;
	// unattributed iterations (-1) sort first, into bucket none.
	t := &rt.dests
	for i := range t.slots {
		t.slots[i].shape = 0
	}
	none := int32(0)
	for _, o := range aff {
		if o < 0 {
			none++
		} else {
			t.touch(int(o)).shape++
		}
	}
	// Counts become start offsets, owners ascending.
	runs := int64(0)
	sum := none
	if none > 0 {
		runs++
	}
	for _, si := range t.byOwner {
		d := &t.slots[si]
		if d.shape > 0 {
			runs++
		}
		d.shape, sum = sum, sum+d.shape
	}
	if runs >= int64(n) {
		// Every iteration its own run: nothing to group, spare the indirection.
		return nil
	}
	if cap(ps.perm) < n {
		ps.perm = make([]int32, n)
	}
	perm := ps.perm[:n]
	none = 0
	for i, o := range aff {
		if o < 0 {
			perm[none] = int32(i)
			none++
		} else {
			d := t.find(int(o))
			perm[d.shape] = int32(i)
			d.shape++
		}
	}
	rt.st.ShapedRuns += runs
	rt.st.PlanPriorHits++
	if rt.trc != nil {
		rt.trc.Event(obs.KShape, rt.EP.Node.Now(), runs, int64(rt.ctl.loop))
	}
	return perm
}
