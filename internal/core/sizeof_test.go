package core

import (
	"reflect"
	"testing"
	"unsafe"

	"dpa/internal/gptr"
)

// Layout budgets for the runtime's hot structs (64-bit platforms). dEntry is
// the fused M/D table entry — one slab element per pointer a phase fetches.
// waiter and readyEntry are the thread record suspended and ready: outstanding-thread
// memory is PeakOutstanding times one of the two. destState is the per-touched-owner slot that replaced nine dense
// per-node arrays. fetchReq is the fetch protocol's one record, the
// free-list node recycled on every aggregation batch, and pools the node's
// store of them. seg is the header of every thread slab and readyQueue the
// static ready queue's, both in every runtime. A failing test here
// means a field was added without repacking: either restore the layout or
// raise the budget in the same change with a justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	cases := []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// The pointer (two int32), the waiter chain's head, tail and count
		// and the strip stamp (four int32); arrived is n == 0. The pointer
		// lets the index compare keys and rehash from the slab with no map
		// beside it, and the stamp drops every copy at a strip boundary in
		// O(1).
		{"core.dEntry", unsafe.Sizeof(dEntry{}), 24},
		// A suspended thread: two frame words + template and next-node
		// index (int32 each) sharing the third.
		{"core.waiter", unsafe.Sizeof(waiter{}), 24},
		// A ready thread: the global pointer (two int32), two frame words,
		// template and iteration stamp (int32 each) sharing the last word.
		{"core.readyEntry", unsafe.Sizeof(readyEntry{}), 32},
		// One slot of the destination table, per touched owner: the open
		// request record's pointer, three 8-byte words (RTT EWMA, sample
		// start, phase fetch total), five int32 and a bool packed into the
		// last three words. The table holds a pointer, so a slot array over
		// 512 bytes pays the allocator's 8-byte header: at 56 bytes the
		// first 8 slots (448 bytes) stay under that line, in the 448-byte
		// size class, and 32 slots take the 2,048-byte class.
		{"core.destState", unsafe.Sizeof(destState{}), 56},
		// The fetch record: one pointer batch, a single slice header.
		{"core.fetchReq", unsafe.Sizeof(fetchReq{}), 24},
		// A node's fetch-record storage: the free list and the current
		// record and pointer chunks, three slice headers.
		{"core.pools", unsafe.Sizeof(pools{}), 72},
		// A no-move slab's header, one per thread slab: the first two
		// segments' pointers, the block directory's slice header, and the
		// length and capacity (int32 each).
		{"core.seg", unsafe.Sizeof(seg[waiter]{}), 48},
		// A node's runtime, allocated once per node per run. With the
		// allocator's 8-byte header for a pointerful object above 512
		// bytes it takes the 1,152-byte size class, which holds up to
		// 1,144 bytes; at 1,016 or less it would take the 1,024-byte one.
		// At 1,040 bytes, with the M/D index's slice header and the strip
		// stamp sharing a word with the waiter free list, it is in the
		// 1,152-byte class.
		{"core.RT", unsafe.Sizeof(RT{}), 1040},
		// The static ready queue: the block ring's slice header, the head's
		// and the tail's block pointers, and five int32 (their ring
		// positions and slots, the count).
		{"core.readyQueue", unsafe.Sizeof(readyQueue{}), 64},
		// Cross-phase prior records: the modelled PriorOwner charged per node
		// per phase kind (two words), the stored record per touched owner
		// (owner id in a word of its own, then the PriorOwner), and the fixed
		// table header — six aggregate counters, the reuse-gap window and the
		// node count sharing a word, and three slice headers.
		{"core.PriorOwner", unsafe.Sizeof(PriorOwner{}), priorOwnerBytes},
		{"core.priorRec", unsafe.Sizeof(priorRec{}), 24},
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

// TestThreadSlabsHoldNoPointers pins the property that takes every thread
// slab and the M/D index out of the collector's scanning: no thread record —
// suspended or ready — no M/D entry, no segment of a slab
// holding them, no ready-queue block, and no cell of the index contains
// anything the collector follows. Threads carry
// their object's pointer, never the object, so a freed slot keeps nothing
// alive and needs no clearing. The slab layout alone does not give that — a
// func or interface field added to a record later would lose it silently.
func TestThreadSlabsHoldNoPointers(t *testing.T) {
	var pointerFree func(ty reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false // pointer, func, interface, slice, map, chan, string, unsafe pointer
	}
	for _, c := range []struct {
		name string
		ty   reflect.Type
	}{
		{"waiter", reflect.TypeOf(waiter{})},
		{"readyEntry", reflect.TypeOf(readyEntry{})},
		{"dEntry", reflect.TypeOf(dEntry{})},
		{"ready-queue block", reflect.TypeOf(readyBlock{})},
		{"waiter segment 0", reflect.TypeOf(RT{}.waiters.s0).Elem()},
		{"waiter segment 1", reflect.TypeOf(RT{}.waiters.s1).Elem()},
		{"waiter block", reflect.TypeOf(RT{}.waiters.blocks).Elem().Elem()},
		{"M/D entry segment 0", reflect.TypeOf(RT{}.entries.s0).Elem()},
		{"M/D entry segment 1", reflect.TypeOf(RT{}.entries.s1).Elem()},
		{"M/D entry block", reflect.TypeOf(RT{}.entries.blocks).Elem().Elem()},
		{"M/D index cell", reflect.TypeOf(RT{}.index).Elem()},
	} {
		if !pointerFree(c.ty) {
			t.Errorf("%s (%v) holds a pointer: the collector scans every element again", c.name, c.ty)
		}
	}
	// The walk itself must know a pointer when it sees one.
	for _, ty := range []reflect.Type{reflect.TypeOf(destState{}), reflect.TypeOf(fetchReq{}),
		reflect.TypeOf(Thread(nil)), reflect.TypeOf([1]*int{}), reflect.TypeOf(struct{ o gptr.Object }{})} {
		if pointerFree(ty) {
			t.Errorf("the walk calls %v pointer-free", ty)
		}
	}
}

// TestPriorAccountingMatchesLayout pins the prior-table byte accounting to
// the real struct layouts and to the modelled table. ByteSize charges
// priorTableBytes plus priorOwnerBytes per machine node — the dense table,
// whatever number of records is stored — against the same 4 MiB renamed-copy
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
	pt := &PriorTable{
		nodes:    4096,
		owners:   []priorRec{{owner: 3, PriorOwner: PriorOwner{Fetches: 1}}, {owner: 900, PriorOwner: PriorOwner{RTT: 2}}},
		Affinity: [][]int32{make([]int32, 8)},
	}
	want := int64(priorTableBytes) + 4096*priorOwnerBytes + 8*4
	if got := pt.ByteSize(); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}
