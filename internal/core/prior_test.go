package core

import (
	"testing"

	"dpa/internal/sim"
)

// priorCycleRT builds a bare planner runtime wired for cross-phase priors,
// the same construction style as TestPlannedDestLimit / TestPlanProposeBounds.
func priorCycleRT(nodes int) *RT {
	rt := &RT{nodes: nodes}
	rt.Cfg = Default()
	rt.Cfg.AggLimit = 16
	rt.Cfg.Planned = true
	rt.initCtl()
	ps := &rt.plan
	ps.rttPrior = 1000
	ps.curIter = -1
	return rt
}

// TestPriorSteadyStateAllocatesNothing pins the recycling contract on the
// prior-table update cycle: once a phase structure has been seen (owner slice
// sized, affinity arrays recorded once), every later attach → warm start →
// shape → record → fold round trip must run without a single heap
// allocation — the Affinity/scratch swap and the capacity-checked scratch
// slices are the whole mechanism.
func TestPriorSteadyStateAllocatesNothing(t *testing.T) {
	const nodes = 4
	const n = 64 // loop length, repeated every phase
	rt := priorCycleRT(nodes)
	pt := &PriorTable{}

	phase := func() {
		rt.AttachPrior(pt)
		if !pt.Empty() {
			rt.planWarmStart(n)
			rt.planShape(n)
		}
		rt.beginLoopAffinity(n)
		for i := range rt.plan.recAff {
			rt.plan.recAff[i] = 1 // every iteration to owner 1: one long run
		}
		rt.plan.phaseIters = int64(n)
		rt.plan.phaseBytes = 1 << 12
		rt.plan.phaseBusy = 1000
		rt.plan.phaseStall = 100
		rt.dests.touch(1).phaseHist = int64(n)
		rt.st.Fetches = int64(n)
		rt.FoldPrior()
	}

	// Two warm-up phases: the first fold sizes the owner slice and records
	// the first affinity side, the second populates the displaced side so
	// both halves of the swap have capacity.
	phase()
	phase()

	// The steady cycle must actually take the warm paths, or zero allocs
	// would be vacuous.
	rt.AttachPrior(pt)
	if !rt.planWarmStart(n) {
		t.Fatal("prior not usable after warm-up folds")
	}
	if rt.planShape(n) == nil {
		t.Fatal("no shaping permutation after warm-up folds")
	}

	if avg := testing.AllocsPerRun(100, phase); avg != 0 {
		t.Fatalf("steady-state prior cycle allocates %.1f times per phase, want 0", avg)
	}
}

// TestPriorWarmStartNeverNarrowsFirstStrip: history may widen the first
// strip, but the cold plan (whole loop, bounded by the configured maximum) is
// the floor — the cold whole-loop strip is the zero-refetch schedule, and a
// history-guessed narrower strip would reintroduce boundary releases.
func TestPriorWarmStartNeverNarrowsFirstStrip(t *testing.T) {
	const nodes = 4
	rt := priorCycleRT(nodes)
	// A prior whose memory bound would argue for a tiny strip: huge bytes
	// per iteration against the default budget.
	rt.plan.prior = &PriorTable{
		Phases: 1, Iters: 100, Fetches: 100, Bytes: 1 << 40,
		Busy: 1000, Stall: 100,
		nodes:  nodes,
		owners: []priorRec{{owner: 1, PriorOwner: PriorOwner{Fetches: 100, RTT: 500}}},
	}
	const n = 512
	if !rt.planWarmStart(n) {
		t.Fatal("non-empty prior rejected")
	}
	cold := n
	if cold > rt.ctl.max {
		cold = rt.ctl.max
	}
	if rt.ctl.strip < cold {
		t.Fatalf("warm start narrowed the first strip to %d, cold plan is %d",
			rt.ctl.strip, cold)
	}
	if !rt.plan.warm || !rt.plan.modelled {
		t.Fatalf("warm start did not mark the plan warm: %+v", rt.plan)
	}
	if rt.st.PlanPriorHits != 1 {
		t.Fatalf("PlanPriorHits = %d, want 1", rt.st.PlanPriorHits)
	}
}

// TestPriorFingerprintIsTheDenseView: a table storing records only for the
// owners it touched digests exactly as the dense table it models — one
// record per node, zeros for the absent owners, leading, inner and trailing
// alike — so snapshot bytes do not depend on how the records are stored.
func TestPriorFingerprintIsTheDenseView(t *testing.T) {
	const nodes = 6
	dense := make([]PriorOwner, nodes)
	dense[1] = PriorOwner{Fetches: 7, RTT: 300}
	dense[4] = PriorOwner{Fetches: 2, RTT: 0}
	pt := &PriorTable{
		Phases: 2, Iters: 64, Fetches: 9, Bytes: 1 << 10, Busy: 5000, Stall: 40,
		nodes:    nodes,
		owners:   []priorRec{{1, dense[1]}, {4, dense[4]}},
		Affinity: [][]int32{{-1, 1, 4}},
		scratch:  [][]int32{{0, 0}},
	}
	h := uint64(0x70726972)
	for _, v := range []int64{pt.Phases, pt.Iters, pt.Fetches, pt.Bytes, int64(pt.Busy), int64(pt.Stall)} {
		h = sim.MixFP(h, uint64(v))
	}
	for _, o := range dense {
		h = sim.MixFP(h, uint64(o.Fetches))
		h = sim.MixFP(h, uint64(o.RTT))
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
	if got := pt.fingerprint(); got != h {
		t.Fatalf("sparse table digests to %#x, its dense view to %#x", got, h)
	}
}
