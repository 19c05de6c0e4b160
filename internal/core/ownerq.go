package core

import "dpa/internal/sim"

// ownerQueue is the owner-major ready queue used in planned mode: one run
// list per owner node, served to exhaustion in first-arrival owner order.
// Threads whose objects came from the same owner run consecutively — the
// paper's tiling, extended from "same renamed object" to "same reply batch" —
// and their nested spawns accumulate in the aggregation buffers together, so
// follow-on requests batch naturally.
//
// A run list is a FIFO chain of nodes through one slab, with its head, tail
// and length in the owner's destination-table slot; the queue itself is the
// FIFO of slots with queued entries. The slab's footprint is the peak ready
// count, not one buffer per touched owner, and a drained node goes back to
// the free list, so steady-state scheduling allocates nothing on the host.
// Nodes hold no Go pointers, so a freed node needs no clearing.
type ownerQueue struct {
	order []int32 // FIFO of destination-table slots with queued entries
	oHead int
	count int
	nodes seg[runNode] // run-list slab
	free  int32        // free nodes, linked through next; -1 ends
}

// runNode is one ready thread of a run list and the index of the next node
// of its chain (or of the free list).
type runNode struct {
	readyEntry
	next int32
}

func (q *ownerQueue) len() int { return q.count }

// push appends a ready thread to its owner's run list, enqueueing the owner
// on first entry. Entries arriving for the owner currently being served
// extend its run (same-owner contiguity is preserved, not re-queued).
func (q *ownerQueue) push(t *destTable, owner int, e readyEntry) {
	si := t.slot(owner)
	d := &t.slots[si]
	q.link(d, e)
	q.woke(d, si, 1)
}

// link appends e to d's run list, taking the node from the free list; woke
// accounts for it.
func (q *ownerQueue) link(d *destState, e readyEntry) {
	ni := q.free
	if ni < 0 {
		ni = q.nodes.push(runNode{readyEntry: e})
	} else {
		nd := q.nodes.at(ni)
		q.free = nd.next
		*nd = runNode{readyEntry: e}
	}
	if d.runN == 0 {
		d.runHead = ni
	} else {
		q.nodes.at(d.runTail).next = ni
	}
	d.runTail = ni
	d.runN++
}

// woke accounts n threads linked to slot si's run list, enqueueing the owner
// if it is not already in the FIFO.
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
	ni := d.runHead
	nd := q.nodes.at(ni)
	e := nd.readyEntry
	d.runHead, nd.next = nd.next, q.free
	q.free = ni
	d.runN--
	q.count--
	if d.runN == 0 {
		d.queued = false
		q.oHead++
		if q.oHead == len(q.order) {
			q.order = q.order[:0]
			q.oHead = 0
		}
	}
	return e
}

// digest folds the queued entries, owners in service order and each run in
// FIFO order, for the snapshot encoding.
func (q *ownerQueue) digest(t *destTable) uint64 {
	h := uint64(q.count)
	for _, si := range q.order[q.oHead:] {
		d := &t.slots[si]
		h = sim.MixFP(h, uint64(d.owner))
		for ni, k := d.runHead, d.runN; k > 0; k-- {
			nd := q.nodes.at(ni)
			h = sim.MixFP(h, nd.p.Key())
			ni = nd.next
		}
	}
	return h
}
