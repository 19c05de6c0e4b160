package fm

import (
	"testing"
	"unsafe"
)

// Layout budget for the endpoint (64-bit platforms): one EP per node per
// run, reset in place every phase, so at 1024 nodes anything per-peer or
// per-level stored here is multiplied out by the node count. The tree's
// shape is computed from the node id; its only storage is one reduce slot
// per child. If the test fires, either compute the new state instead of
// storing it or raise the budget in the same change with a justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	// Node, net, Ctx (2 words), rel, trc: 6 words. FaultStats: 11 counters.
	// errs slice + overflow count: 4. Barrier count/epoch/at: 3. Reduce
	// count, fanIn slots, result: 2 + fanIn. The reduce-done and live-set
	// flags share 1. Live-set hub: sum, two per-peer slices (nil off node 0
	// and whenever crashes are not armed), reduction ordinal: 8.
	const budget = (6 + 11 + 4 + 3 + 2 + fanIn + 1 + 8) * 8
	size := unsafe.Sizeof(EP{})
	t.Logf("fm.EP = %d bytes (budget %d)", size, budget)
	if size > budget {
		t.Errorf("fm.EP grew to %d bytes, over its %d-byte budget; repack or re-justify", size, budget)
	}
}
