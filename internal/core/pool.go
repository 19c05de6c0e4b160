package core

import "dpa/internal/gptr"

// poolCap bounds each free list so a burst (one oversized strip, say) does
// not pin memory for the rest of the run.
const poolCap = 64

// put pushes v on a free list. A full list gives up its oldest element, not
// v, so the element a later get pops never depends on how much the list held
// before — and therefore not on whether the list started the phase empty or
// was carried over in a recycled Arena. That matters for requests and
// replies, the only pooled values other nodes can still see: an unacked
// reliable frame keeps pointing at a payload its receiver has already
// consumed and recycled, and a snapshot fingerprints it through that pointer.
func put[T any](list []T, v T) []T {
	if len(list) < poolCap {
		return append(list, v)
	}
	copy(list, list[1:])
	list[poolCap-1] = v
	return list
}

// pools are the per-node free lists behind the fetch protocol. Every buffer
// is only ever touched by the node currently holding it — requests and
// replies move between nodes by message passing, and a handler recycles a
// buffer only after it has fully consumed it — so the lists need no locking
// even under the parallel engine. Recycling affects
// host allocations only, never simulated time, so it cannot perturb the
// bit-identical determinism contract. The lists survive from phase to phase
// inside the node's Arena.
type pools struct {
	reqs    []*fetchReq
	replies []*fetchReply
	ptrs    [][]gptr.Ptr
	objs    [][]gptr.Object
}

func (pl *pools) getReq() *fetchReq {
	if n := len(pl.reqs); n > 0 {
		r := pl.reqs[n-1]
		pl.reqs = pl.reqs[:n-1]
		return r
	}
	return &fetchReq{}
}

func (pl *pools) putReq(r *fetchReq) { pl.reqs = put(pl.reqs, r) }

func (pl *pools) getReply() *fetchReply {
	if n := len(pl.replies); n > 0 {
		r := pl.replies[n-1]
		pl.replies = pl.replies[:n-1]
		return r
	}
	return &fetchReply{}
}

func (pl *pools) putReply(r *fetchReply) {
	r.ptrs, r.objs = nil, nil
	pl.replies = put(pl.replies, r)
}

// getPtrs returns an empty pointer batch, reusing a recycled one's capacity.
func (pl *pools) getPtrs() []gptr.Ptr {
	if n := len(pl.ptrs); n > 0 {
		s := pl.ptrs[n-1]
		pl.ptrs = pl.ptrs[:n-1]
		return s[:0]
	}
	return nil
}

func (pl *pools) putPtrs(s []gptr.Ptr) {
	if s != nil {
		pl.ptrs = put(pl.ptrs, s)
	}
}

// getObjs returns an object batch of length n with all slots zeroed.
func (pl *pools) getObjs(n int) []gptr.Object {
	if m := len(pl.objs); m > 0 {
		s := pl.objs[m-1]
		pl.objs = pl.objs[:m-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]gptr.Object, n)
}

func (pl *pools) putObjs(s []gptr.Object) {
	if s == nil {
		return
	}
	clear(s) // drop object references so renamed copies can be collected
	pl.objs = put(pl.objs, s[:0])
}
