package core

import (
	"testing"

	"dpa/internal/gptr"
)

// ascending returns the owners the table's ordered walk visits.
func ascending(t *destTable) []int {
	var out []int
	for _, si := range t.byOwner {
		out = append(out, int(t.slots[si].owner))
	}
	return out
}

// TestDestTableIteratesInAscendingOwnerOrder: whatever order owners are first
// touched in, the ordered walk — the one flush order, probe order and the
// snapshot's dense view follow — is ascending owner id, while slot indices
// stay in first-touch order and never move.
func TestDestTableIteratesInAscendingOwnerOrder(t *testing.T) {
	var tb destTable
	touched := []int{900, 3, 512, 0, 77, 1023, 4}
	for i, o := range touched {
		if si := tb.slot(o); int(si) != i {
			t.Fatalf("owner %d got slot %d, want first-touch index %d", o, si, i)
		}
	}
	tb.touch(512).pending = 9 // a re-touch must find, not create
	if len(tb.slots) != len(touched) {
		t.Fatalf("%d slots after %d distinct owners", len(tb.slots), len(touched))
	}
	want := []int{0, 3, 4, 77, 512, 900, 1023}
	got := ascending(&tb)
	if len(got) != len(want) {
		t.Fatalf("ordered walk visits %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ordered walk visits %v, want %v", got, want)
		}
	}
	if d := tb.find(512); d == nil || d.pending != 9 {
		t.Fatalf("find(512) = %+v, want the slot touched above", d)
	}

	// The dense view hands out one record per machine node, zeros between.
	seen := 0
	tb.dense(1024, func(d *destState) {
		if d.pending == 9 {
			if seen != 512 {
				t.Fatalf("dense view placed owner 512's record at position %d", seen)
			}
		} else if d.pending != 0 || d.req != nil {
			t.Fatalf("dense view position %d is not zero: %+v", seen, d)
		}
		seen++
	})
	if seen != 1024 {
		t.Fatalf("dense view visited %d records, want 1024", seen)
	}
}

// TestDestTableIndexGrowsAndRehashes pushes the table through several index
// doublings and checks that every owner is still found at its own slot, that
// untouched owners stay absent, and that reads never create slots.
func TestDestTableIndexGrowsAndRehashes(t *testing.T) {
	var tb destTable
	const n = 50 * destMinSlots
	for i := 0; i < n; i++ {
		o := (i * 7919) % 4096 // distinct: 7919 is coprime to 4096
		tb.touch(o).curHist = int32(i)
	}
	if len(tb.slots) != n {
		t.Fatalf("%d slots, want %d", len(tb.slots), n)
	}
	if len(tb.index) < 2*n || len(tb.index)&(len(tb.index)-1) != 0 {
		t.Fatalf("index has %d cells for %d slots: want a power of two at load <= 1/2", len(tb.index), n)
	}
	present := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		o := (i * 7919) % 4096
		present[o] = true
		if d := tb.find(o); d == nil || int(d.owner) != o || d.curHist != int32(i) {
			t.Fatalf("owner %d lost across rehash: %+v", o, d)
		}
	}
	for o := 0; o < 4096; o++ {
		if !present[o] && tb.find(o) != nil {
			t.Fatalf("untouched owner %d found", o)
		}
	}
	if len(tb.slots) != n {
		t.Fatalf("find created slots: %d, want %d", len(tb.slots), n)
	}
	prev := -1
	for _, o := range ascending(&tb) {
		if o <= prev {
			t.Fatalf("ordered walk not strictly ascending at owner %d after %d", o, prev)
		}
		prev = o
	}
}

// TestDestTableResetLeavesNoStaleSlot: after reset nothing of the previous
// phase is reachable — not by lookup, not by the ordered walk, not through a
// recycled slot's fields, open request record included.
func TestDestTableResetLeavesNoStaleSlot(t *testing.T) {
	var tb destTable
	for _, o := range []int{5, 2, 9} {
		d := tb.touch(o)
		d.req = &fetchReq{ptrs: []gptr.Ptr{{Node: int32(o)}}}
		d.pending, d.curHist, d.prevHist, d.phaseHist = 1, 2, 3, 4
		d.rttEwma, d.rttSentAt, d.rttMark, d.shape = 5, 6, true, 7
	}
	tb.reset()
	if len(tb.slots) != 0 || len(tb.byOwner) != 0 {
		t.Fatalf("reset left %d slots, %d ordered", len(tb.slots), len(tb.byOwner))
	}
	for _, o := range []int{5, 2, 9} {
		if tb.find(o) != nil {
			t.Fatalf("owner %d still found after reset", o)
		}
	}
	d := tb.touch(7) // takes over the storage owner 5 held
	if *d != (destState{owner: 7}) {
		t.Fatalf("recycled slot carries stale state: %+v", *d)
	}
	if got := ascending(&tb); len(got) != 1 || got[0] != 7 {
		t.Fatalf("ordered walk after reset visits %v, want [7]", got)
	}
}
