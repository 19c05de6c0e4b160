package sim

// mailbox is a two-lane deterministic priority queue of messages ordered by
// the delivery key (Arrival, From, per-sender seq).
//
// Lane 1 (ring) is a sorted slice consumed from a head index. The common
// arrival pattern — request/reply streams whose delivery keys are already
// non-decreasing at push time — appends here in O(1) with no element
// movement. Lane 2 (ovf) is a binary heap that absorbs the out-of-order
// remainder. pop takes the smaller of the two lane fronts, so the merged
// sequence is exactly the total delivery order the single-heap mailbox
// produced; only the constant factors changed.
//
// The delivery key is a total order fixed by each sender's program order,
// not by the real-time interleaving of sends, which is what makes the
// sequential and parallel engines deliver identically.
type mailbox struct {
	ring []Message // sorted by key; live window is ring[head:]
	head int
	ovf  msgHeap // out-of-order arrivals
}

// msgLess orders messages by (Arrival, From, seq). Keys are unique: a sender
// never reuses a seq number.
func msgLess(a, b *Message) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.seq < b.seq
}

// size returns the number of pending messages.
func (mb *mailbox) size() int { return len(mb.ring) - mb.head + len(mb.ovf) }

// push inserts m, appending to the sorted ring when m's key is not below the
// ring's current tail (the in-order fast path) and spilling to the overflow
// heap otherwise.
func (mb *mailbox) push(m Message) {
	n := len(mb.ring)
	if n == mb.head {
		// Empty ring: restart it so the consumed prefix is reclaimed.
		mb.ring = mb.ring[:0]
		mb.head = 0
		mb.ring = append(mb.ring, m)
		return
	}
	if !msgLess(&m, &mb.ring[n-1]) {
		if mb.head > 64 && mb.head*2 >= n {
			// Compact a ring that is never fully drained, so the slice
			// does not grow without bound.
			kept := copy(mb.ring, mb.ring[mb.head:])
			clear(mb.ring[kept:])
			mb.ring = mb.ring[:kept]
			mb.head = 0
		}
		mb.ring = append(mb.ring, m)
		return
	}
	mb.ovf.push(m)
}

// reset empties the mailbox, keeping both lanes' storage. Popped slots were
// zeroed as they were consumed, so only the pending ones are cleared.
func (mb *mailbox) reset() {
	clear(mb.ring[mb.head:])
	clear(mb.ovf)
	mb.ring, mb.head, mb.ovf = mb.ring[:0], 0, mb.ovf[:0]
}

// peekArrival returns the arrival time of the earliest pending message in
// delivery order, and whether one exists.
func (mb *mailbox) peekArrival() (Time, bool) {
	switch {
	case mb.head < len(mb.ring) && len(mb.ovf) > 0:
		if a := mb.ring[mb.head].Arrival; a <= mb.ovf[0].Arrival {
			return a, true
		}
		return mb.ovf[0].Arrival, true
	case mb.head < len(mb.ring):
		return mb.ring[mb.head].Arrival, true
	case len(mb.ovf) > 0:
		return mb.ovf[0].Arrival, true
	}
	return 0, false
}

// pop removes and returns the earliest pending message in delivery order.
// The mailbox must be non-empty.
func (mb *mailbox) pop() Message {
	if mb.head < len(mb.ring) {
		front := &mb.ring[mb.head]
		if len(mb.ovf) == 0 || msgLess(front, &mb.ovf[0]) {
			m := *front
			*front = Message{} // release payload reference
			mb.head++
			if mb.head == len(mb.ring) {
				mb.ring = mb.ring[:0]
				mb.head = 0
			}
			return m
		}
	}
	return mb.ovf.pop()
}
