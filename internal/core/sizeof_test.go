package core

import (
	"testing"
	"unsafe"
)

// Layout budgets for the runtime's hot structs (64-bit platforms). dEntry is
// the fused M/D table entry — one per renamed copy, pooled and recycled, and
// the planner's reuse-region stamp had to fit in its padding rather than grow
// it. destState is the per-touched-owner slot that replaced nine dense
// per-node arrays. fetchReq/fetchReply are the free-list nodes the fetch protocol recycles
// on every aggregation batch. A failing test here means a field was added
// without repacking: either restore the layout or raise the budget in the
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
		// Object interface (2 words) + waiters slice (3 words) + lastUse
		// (int32) + arrived (bool) packed into the final word: the reuse-
		// region stamp rides the padding that was already there.
		{"core.dEntry", unsafe.Sizeof(dEntry{}), 48},
		// One slot of the destination table, per touched owner: two slice
		// headers (request buffer, run list), three 8-byte words (RTT EWMA,
		// sample start, phase fetch total), six int32 and two bools packed
		// into the last four words.
		{"core.destState", unsafe.Sizeof(destState{}), 104},
		// One pointer batch: a single slice header.
		{"core.fetchReq", unsafe.Sizeof(fetchReq{}), 24},
		// Pointer batch + object batch: two slice headers.
		{"core.fetchReply", unsafe.Sizeof(fetchReply{}), 48},
		// Cross-phase prior records: one PriorOwner per node per phase kind
		// (two words), and the fixed table header — six aggregate counters,
		// the reuse-gap window, and three slice headers.
		{"core.PriorOwner", unsafe.Sizeof(PriorOwner{}), priorOwnerBytes},
		{"core.PriorTable", unsafe.Sizeof(PriorTable{}), priorTableBytes},
	}
	for _, c := range cases {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}

// TestPriorAccountingMatchesLayout pins the prior-table byte accounting to
// the real struct layouts. ByteSize charges priorTableBytes plus
// priorOwnerBytes per owner record against the same 4 MiB renamed-copy
// budget the planner's memory bound spends from (planPropose subtracts
// priorBytes from the headroom), so a drifted constant silently mis-sizes
// strips — the constants must equal the layouts exactly, not merely bound
// them.
func TestPriorAccountingMatchesLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	if got := unsafe.Sizeof(PriorOwner{}); got != priorOwnerBytes {
		t.Errorf("PriorOwner is %d bytes, accounting charges %d", got, priorOwnerBytes)
	}
	if got := unsafe.Sizeof(PriorTable{}); got != priorTableBytes {
		t.Errorf("PriorTable header is %d bytes, accounting charges %d", got, priorTableBytes)
	}
	pt := &PriorTable{Owners: make([]PriorOwner, 4), Affinity: [][]int32{make([]int32, 8)}}
	want := int64(priorTableBytes) + 4*priorOwnerBytes + 8*4
	if got := pt.ByteSize(); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}
