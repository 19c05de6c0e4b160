package core

import "testing"

// TestFreeListCarriedOverPopsLikeFresh pins the property put's evict-oldest
// rule exists for: drive a free list that starts empty and one that starts
// with leftovers (a recycled arena's) through the same puts and gets, past
// poolCap in both directions, and every get the fresh list serves from its
// pool is served the same element by the carried-over one. Where the fresh
// list is empty (it would allocate) the carried one may hand out a leftover;
// both are elements nothing in the current phase refers to.
func TestFreeListCarriedOverPopsLikeFresh(t *testing.T) {
	get := func(list []*fetchReq) ([]*fetchReq, *fetchReq) {
		if n := len(list); n > 0 {
			return list[:n-1], list[n-1]
		}
		return list, nil
	}
	var fresh, carried []*fetchReq
	leftover := make(map[*fetchReq]bool)
	for i := 0; i < poolCap-10; i++ {
		r := &fetchReq{}
		leftover[r] = true
		carried = put(carried, r)
	}
	seed := uint32(1)
	overflows, empties := 0, 0
	for step := 0; step < 20000; step++ {
		seed = seed*1664525 + 1013904223
		// Long runs of mostly puts, then of mostly gets, so both lists
		// overflow and the fresh one runs dry.
		putShare := uint32(90)
		if (step/300)%2 == 1 {
			putShare = 10
		}
		if (seed>>16)%100 < putShare {
			if len(fresh) == poolCap {
				overflows++
			}
			r := &fetchReq{}
			fresh, carried = put(fresh, r), put(carried, r)
			if len(fresh) > poolCap || len(carried) > poolCap {
				t.Fatalf("step %d: lists hold %d and %d, cap is %d", step, len(fresh), len(carried), poolCap)
			}
			continue
		}
		var f, c *fetchReq
		fresh, f = get(fresh)
		carried, c = get(carried)
		switch {
		case f != nil && f != c:
			t.Fatalf("step %d: fresh list popped %p, carried-over list popped %p", step, f, c)
		case f == nil && c != nil && !leftover[c]:
			t.Fatalf("step %d: fresh list was empty but the carried-over one popped an element of this phase", step)
		case f == nil:
			empties++
		}
	}
	if overflows == 0 || empties == 0 {
		t.Fatalf("the walk never left the easy middle: %d overflowing puts, %d gets on an empty list", overflows, empties)
	}
}
