package core

// ownerQueue is the owner-major ready queue used in adaptive mode: one run
// list per owner node, served to exhaustion in first-arrival owner order.
// Threads whose objects came from the same owner run consecutively — the
// paper's tiling, extended from "same renamed object" to "same reply batch" —
// and their nested spawns accumulate in the aggregation buffers together, so
// follow-on requests batch naturally.
//
// The run lists live in the destination table (destState.run), one per
// touched owner; the queue itself is the FIFO of slots with queued entries.
// All storage is reused across strips: the run lists and the slot FIFO reset
// in place when they drain, so steady-state scheduling allocates nothing on
// the host.
type ownerQueue struct {
	order []int32 // FIFO of destination-table slots with queued entries
	oHead int
	count int
}

func (q *ownerQueue) len() int { return q.count }

// push appends a ready thread to its owner's run list, enqueueing the owner
// on first entry. Entries arriving for the owner currently being served
// extend its run (same-owner contiguity is preserved, not re-queued).
func (q *ownerQueue) push(t *destTable, owner int, e readyEntry) {
	si := t.slot(owner)
	d := &t.slots[si]
	d.run = append(d.run, e)
	q.woke(d, si, 1)
}

// woke accounts n threads appended to slot si's run list, enqueueing the
// owner if it is not already in the FIFO.
func (q *ownerQueue) woke(d *destState, si int32, n int) {
	if !d.queued {
		d.queued = true
		q.order = append(q.order, si)
	}
	q.count += n
}

// pop removes the next thread: the head of the frontmost owner's run list.
func (q *ownerQueue) pop(t *destTable) readyEntry {
	d := &t.slots[q.order[q.oHead]]
	e := d.run[d.runHead]
	d.run[d.runHead] = readyEntry{} // release references
	d.runHead++
	q.count--
	if int(d.runHead) == len(d.run) {
		d.run = d.run[:0]
		d.runHead = 0
		d.queued = false
		q.oHead++
		if q.oHead == len(q.order) {
			q.order = q.order[:0]
			q.oHead = 0
		}
	}
	return e
}
