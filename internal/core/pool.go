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

// Sizes of the slabs new fetch records are carved from. A record starts with
// room for one pointer — most batches carry one object (EM3D's average 1.01).
// A full record moves to room for recSmall pointers, or for recCap once it
// holds recSmall (either capped by its aggregation limit), and doubles after
// that: EM3D's few longer batches fit in recSmall, and most of PageRank's in
// recCap. Pointer chunks double from ptrChunkMin to ptrChunk, so a node that
// fetches little reserves little; a pointer array longer than ptrChunk/4 gets
// an allocation of its own, so a full-size chunk never ends more than a
// quarter unused.
const (
	recChunk    = 8 // records per record chunk
	ptrChunkMin = 32
	ptrChunk    = 128
	recSmall    = 4
	recCap      = 32
)

// pools is the per-node storage behind the fetch protocol: a free list of
// recycled records and the two slabs new ones are carved from. A record
// leaves its home node as a request, comes back as the reply, and is recycled
// here once the reply is consumed, so every record is only ever touched by
// the node currently holding it and always returns to the node that filled
// it: the list needs no locking even under the parallel engine, and its
// length is bounded by the node's own peak of in-flight requests, not by what
// other nodes send it. Records and pointer arrays in one chunk are distinct
// memory, so owners on other workers read their requests while the home node
// fills a neighbour. Recycling affects host allocations only, never simulated
// time, so it cannot perturb the bit-identical determinism contract. All of it
// survives from phase to phase in the node's recycled runtime.
type pools struct {
	reqs []*fetchReq // free list, LIFO, made once at poolCap
	recs []fetchReq  // the current record chunk; its length is what has been handed out
	ptrs []gptr.Ptr  // the current pointer chunk, likewise
}

// getReq returns an empty record with room for at least n pointers, reusing a
// recycled one (and its capacity) when the free list has one.
func (pl *pools) getReq(n int) *fetchReq {
	if k := len(pl.reqs); k > 0 {
		r := pl.reqs[k-1]
		pl.reqs = pl.reqs[:k-1]
		return r
	}
	if len(pl.recs) == cap(pl.recs) {
		pl.recs = make([]fetchReq, 0, recChunk)
	}
	pl.recs = pl.recs[:len(pl.recs)+1]
	r := &pl.recs[len(pl.recs)-1]
	r.ptrs = pl.carve(n)
	return r
}

// push appends p to r's batch, moving a full batch (and only it) to fresh
// room carved for it.
func (pl *pools) push(r *fetchReq, p gptr.Ptr, limit int) {
	if n := len(r.ptrs); n == cap(r.ptrs) {
		step := recCap
		if n < recSmall {
			step = recSmall
		}
		r.ptrs = append(pl.carve(max(2*n, min(limit, step))), r.ptrs...)
	}
	r.ptrs = append(r.ptrs, p)
}

// carve returns an empty slice with room for exactly n pointers. Its capacity
// ends where the room does, so an append past it moves the slice instead of
// writing over a neighbour's.
func (pl *pools) carve(n int) []gptr.Ptr {
	if n > ptrChunk/4 {
		return make([]gptr.Ptr, 0, n)
	}
	if cap(pl.ptrs)-len(pl.ptrs) < n {
		pl.ptrs = make([]gptr.Ptr, 0, min(max(2*cap(pl.ptrs), ptrChunkMin), ptrChunk))
	}
	lo := len(pl.ptrs)
	pl.ptrs = pl.ptrs[:lo+n]
	return pl.ptrs[lo : lo : lo+n]
}

func (pl *pools) putReq(r *fetchReq) {
	r.ptrs = r.ptrs[:0]
	if pl.reqs == nil {
		pl.reqs = make([]*fetchReq, 0, poolCap)
	}
	pl.reqs = put(pl.reqs, r)
}
