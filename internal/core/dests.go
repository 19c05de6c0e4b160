package core

import (
	"math/bits"

	"dpa/internal/sim"
)

// destState is everything the runtime keeps about one owner node: its open
// request record (the aggregation buffer) and outstanding-request count, the
// round-trip sample and EWMA, and the planner's per-owner fetch histograms. A
// slot exists only for an owner the node has touched this phase — the paper
// sizes M and D by the strip, and this table follows suit — so the per-node
// footprint is independent of the machine size. Field order packs the
// scalars behind the record pointer; the sizeof regression test pins the
// layout.
type destState struct {
	req *fetchReq // open request record or nil (append order is program order)

	rttEwma   sim.Time // round-trip EWMA
	rttSentAt sim.Time
	phaseHist int64 // whole-phase fetch total (prior fold)

	owner    int32
	pending  int32 // outstanding request messages
	curHist  int32 // fetches during the running strip
	prevHist int32 // fetches during the previous strip (prediction source)
	shape    int32 // planShape's counting-sort cursor
	rttMark  bool  // a round-trip sample is armed
}

// destRef is one cell of the owner→slot index; slot is biased by one so the
// zero cell is empty.
type destRef struct {
	owner int32
	slot  int32
}

// destTable is the sparse per-destination table: a packed slot array in
// first-touch order, an open-addressed owner→slot index (linear probing,
// load ≤ 1/2, twice as many cells as the slot array holds), and the slot
// indices in ascending owner order for every walk whose order reaches the
// simulation (flush order, probe order, the snapshot's dense view). Slot
// indices are stable until reset; pointers into slots are not — slot() may
// grow the array, so no *destState is held across a call that can touch a
// new owner. The zero value is an empty table.
type destTable struct {
	slots   []destState
	byOwner []int32
	index   []destRef
}

// A table holds destMinSlots owners before it first grows, and its first
// growth goes straight to destFirstGrowth, then it doubles: a node of EM3D at
// 1,024 nodes that outgrows 8 owners touches about 20 and at most 34, so the
// 16-slot step would be copied again at once.
const (
	destMinSlots    = 8
	destFirstGrowth = 32
)

// home is owner's first probe position (Fibonacci hashing on the top bits).
func (t *destTable) home(owner int) int {
	return int(uint32(owner) * 0x9E3779B1 >> bits.LeadingZeros32(uint32(len(t.index)-1)))
}

// probe returns the index cell holding owner, or the empty cell where owner
// would be inserted. The index must be non-empty.
func (t *destTable) probe(owner int) int {
	mask := len(t.index) - 1
	i := t.home(owner)
	for t.index[i].slot != 0 && int(t.index[i].owner) != owner {
		i = (i + 1) & mask
	}
	return i
}

// find returns owner's slot, or nil when the owner is untouched. Reads of an
// untouched owner see zeros without creating a slot.
func (t *destTable) find(owner int) *destState {
	if len(t.index) == 0 {
		return nil
	}
	if r := t.index[t.probe(owner)]; r.slot != 0 {
		return &t.slots[r.slot-1]
	}
	return nil
}

// touch returns owner's slot, creating it on first touch.
func (t *destTable) touch(owner int) *destState { return &t.slots[t.slot(owner)] }

// slot returns the index of owner's slot, creating it on first touch.
func (t *destTable) slot(owner int) int32 {
	if len(t.index) > 0 {
		if r := t.index[t.probe(owner)]; r.slot != 0 {
			return r.slot - 1
		}
	}
	if len(t.slots) == cap(t.slots) {
		t.grow()
	}
	i := t.probe(owner)
	n := len(t.slots)
	t.slots = append(t.slots, destState{owner: int32(owner)})
	t.index[i] = destRef{owner: int32(owner), slot: int32(n) + 1}

	// Sorted insert: byOwner stays in ascending owner order at all times.
	lo, hi := 0, len(t.byOwner)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.slots[t.byOwner[mid]].owner) < owner {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.byOwner = append(t.byOwner, 0)
	copy(t.byOwner[lo+1:], t.byOwner[lo:])
	t.byOwner[lo] = int32(n)
	return int32(n)
}

// grow gives the table room for its next capacity — destMinSlots,
// destFirstGrowth, then twice the last — moving the slots and the order list
// and rehashing every slot into an index of twice as many cells.
func (t *destTable) grow() {
	n := 2 * cap(t.slots)
	switch cap(t.slots) {
	case 0:
		n = destMinSlots
	case destMinSlots:
		n = destFirstGrowth
	}
	t.slots = append(make([]destState, 0, n), t.slots...)
	t.byOwner = append(make([]int32, 0, n), t.byOwner...)
	t.index = make([]destRef, 2*n)
	for s := range t.slots {
		owner := t.slots[s].owner
		t.index[t.probe(int(owner))] = destRef{owner: owner, slot: int32(s) + 1}
	}
}

// reset empties the table, keeping the slot array, the order list, and the
// index for the next phase. A table that has never held anything gets room
// for its first destMinSlots owners here, so a phase touching that few pays
// nothing at first touch.
func (t *destTable) reset() {
	if t.index == nil {
		t.grow()
		return
	}
	t.slots = t.slots[:0]
	t.byOwner = t.byOwner[:0]
	clear(t.index)
}

// dense calls visit once per owner id in [0, n), ascending, handing it the
// owner's slot or a zero destState for an untouched owner: the view the
// snapshot encoding has always had, one record per machine node.
func (t *destTable) dense(n int, visit func(d *destState)) {
	var zero destState
	next := 0
	for o := 0; o < n; o++ {
		if next < len(t.byOwner) {
			if d := &t.slots[t.byOwner[next]]; int(d.owner) == o {
				visit(d)
				next++
				continue
			}
		}
		visit(&zero)
	}
}
