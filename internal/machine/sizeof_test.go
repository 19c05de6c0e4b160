package machine

import (
	"testing"
	"unsafe"
)

// Layout budgets for the per-node machine structs (64-bit platforms). A
// machine lives for a whole multi-phase run and holds one Node per simulated
// processor in one slab, so growth here is multiplied by the node count once
// per run. If a test here fires, repack the struct or raise the budget in the
// same change with a justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	cases := []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// The node's tags, a window on the machine's slab (3 words), and
		// the shift and stale flag (1).
		{"machine.dataCache", unsafe.Sizeof(dataCache{}), 32},
		// Machine, id, proc and tracer pointers (4 words), the data cache
		// (4), message, cache and fault counters (10), fault cursors (2),
		// crash time, flag and time (3).
		{"machine.Node", unsafe.Sizeof(Node{}), 184},
	}
	for _, c := range cases {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}
