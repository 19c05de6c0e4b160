package core

import "dpa/internal/gptr"

// poolCap bounds the free list so a burst (one oversized strip, say) does not
// pin memory for the rest of the run.
const poolCap = 64

// put pushes v on a free list. A full list gives up its oldest element, not
// v, so the element a later get pops never depends on how much the list held
// before — and therefore not on whether the list started the phase empty or
// was carried over from the previous phase's runtime. That matters for fetch records, the
// only pooled values other nodes can still see: an unacked reliable frame
// keeps pointing at a record its receiver has already consumed and its home
// node has recycled, and a snapshot fingerprints it through that pointer.
func put[T any](list []T, v T) []T {
	if len(list) < poolCap {
		return append(list, v)
	}
	copy(list, list[1:])
	list[poolCap-1] = v
	return list
}

// recCap is the most pointers a new fetch record has room for before its
// batch first grows; a batch limited to fewer gets exactly its limit.
const recCap = 16

// pools is the per-node free list behind the fetch protocol. A record leaves
// its home node as a request, comes back as the reply, and is recycled here
// once the reply is consumed, so every record is only ever touched by the
// node currently holding it and always returns to the node that filled it:
// the list needs no locking even under the parallel engine, and its length is
// bounded by the node's own peak of in-flight requests, not by what other
// nodes send it. Recycling affects host allocations only, never simulated
// time, so it cannot perturb the bit-identical determinism contract. The
// list survives from phase to phase in the node's recycled runtime.
type pools struct {
	reqs []*fetchReq
}

// getReq returns an empty record for a batch of at most limit pointers,
// reusing a recycled one's capacity.
func (pl *pools) getReq(limit int) *fetchReq {
	if n := len(pl.reqs); n > 0 {
		r := pl.reqs[n-1]
		pl.reqs = pl.reqs[:n-1]
		return r
	}
	return &fetchReq{ptrs: make([]gptr.Ptr, 0, min(limit, recCap))}
}

func (pl *pools) putReq(r *fetchReq) {
	r.ptrs = r.ptrs[:0]
	pl.reqs = put(pl.reqs, r)
}
