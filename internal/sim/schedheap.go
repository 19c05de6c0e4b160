package sim

// schedHeap is an indexed binary min-heap of live processes keyed by
// (wake, id): the W = 1 loop's whole schedule. Picking the next process to
// run is a root read, updating a process's wake time is O(log P) sift, and
// the scheduling horizon (the earliest wake among the *other* processes) is
// the smaller of the root's two children — the "second-best key" — because
// every non-root element lives in one of those subtrees.
//
// Each Proc carries its heap position in heapIdx so that decrease-key (a
// post waking a blocked process early) needs no search. Only the one running
// process touches the heap, so it needs no locking.
type schedHeap []*Proc

func (h schedHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	return a.id < b.id
}

func (h schedHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h schedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h schedHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return i != start
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// fix restores heap order after the key at position i changed either way.
func (h schedHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push inserts p at its (wake, id) key: Run's partition fills the heap with
// it.
func (h *schedHeap) push(p *Proc) {
	*h = append(*h, p)
	p.heapIdx = len(*h) - 1
	h.up(p.heapIdx)
}

// remove deletes p from the heap (used when a process completes).
func (h *schedHeap) remove(p *Proc) {
	i := p.heapIdx
	last := len(*h) - 1
	if i != last {
		h.swap(i, last)
	}
	(*h)[last] = nil
	*h = (*h)[:last]
	if i != last {
		h.fix(i)
	}
	p.heapIdx = -1
}

// min returns the live process with the smallest (wake, id) key. The heap
// must be non-empty.
func (h schedHeap) min() *Proc { return h[0] }

// secondWake returns the earliest wake time among all processes except the
// root — what bounds a lone runner's horizon (see Engine.reach). Forever when the root is the only live process.
func (h schedHeap) secondWake() Time {
	w := Forever
	if len(h) > 1 {
		w = h[1].wake
	}
	if len(h) > 2 && h[2].wake < w {
		w = h[2].wake
	}
	return w
}
