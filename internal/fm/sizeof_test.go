package fm

import (
	"testing"
	"unsafe"
)

// Layout budget for the endpoint (64-bit platforms): one EP per node per
// run, reset in place every phase, so at 1024 nodes anything per-peer or
// per-level stored here is multiplied out by the node count. The tree's
// shape is computed from the node id; its only storage is one ordinal slot
// per child, and a sender routed around a dead node lands in a map that
// stays nil in a fault-free run. If the test fires, either compute the new
// state instead of storing it or raise the budget in the same change with a
// justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	// Node, net, Ctx (2 words), rel, trc: 6 words. FaultStats: 11 counters.
	// errs slice + overflow count: 4. barrierAt and releasedAt: 2. Per-child
	// arrive ordinals: fanIn. The adopted senders' map: 1. The crashes flag:
	// 1. Was 312 B with the all-reduce and the crash-only hub.
	const budget = (6 + 11 + 4 + 2 + fanIn + 1 + 1) * 8
	size := unsafe.Sizeof(EP{})
	t.Logf("fm.EP = %d bytes (budget %d)", size, budget)
	if size > budget {
		t.Errorf("fm.EP grew to %d bytes, over its %d-byte budget; repack or re-justify", size, budget)
	}
}
