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
		// Capacity, index and entry slices, head and tail: 8 words.
		{"machine.touchSet", unsafe.Sizeof(touchSet{}), 64},
		// Machine, id, proc and tracer pointers (4 words), the data cache
		// held by value so Run resets it in place instead of allocating it
		// per phase (8 words), message, cache and fault counters (10), fault
		// cursors (2), crash time, flag and time (3).
		{"machine.Node", unsafe.Sizeof(Node{}), 216},
	}
	for _, c := range cases {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}
