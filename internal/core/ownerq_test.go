package core

import (
	"bytes"
	"testing"

	"dpa/internal/gptr"
	"dpa/internal/sim"
)

// FuzzOwnerQueue drives the owner-major queue — run lists chained through one
// slab — against the structure it replaced: one plain slice per owner and a
// FIFO of owners with queued entries. Each input byte is one step; its top
// three bits pick the operation and the low five its argument:
//
//	0, 1   push to owner arg&7
//	2      a reply's wake pass: arg>>3+1 entries linked to owner arg&7, then
//	       accounted at once, as scatterReply does
//	3      push to the owner being served (owner arg&7 when none is)
//	4–6    pop
//	7      recycle the runtime when arg < 4, else pop
//
// After every step the length and the snapshot digest must match the
// reference's, the slab must hold no more nodes than the peak queued count
// since the last recycle, and the free list and the queued entries together
// must account for every node. A freed node keeps its stale entry: nodes hold
// no Go pointers (TestThreadSlabsHoldNoPointers), so it keeps nothing alive.
func FuzzOwnerQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x80, 0x61, 0x80, 0x80, 0x80})
	// Interleave two owners, serve one while pushes extend its run, then
	// drain and refill from the free list.
	f.Add(bytes.Repeat([]byte{0x00, 0x21, 0x5a, 0x80, 0x63, 0x80, 0x80, 0xa0}, 8))
	// Fill, recycle mid-stream, fill again.
	f.Add(append(bytes.Repeat([]byte{0x03, 0x44, 0x25}, 10), append([]byte{0xe0}, bytes.Repeat([]byte{0x06, 0x80}, 10)...)...))

	f.Fuzz(func(t *testing.T, steps []byte) {
		var rt RT
		rt.recycle()
		q, tb := &rt.oq, &rt.dests
		runs := map[int32][]readyEntry{}
		var order []int32
		peak := 0
		next := uint64(1)
		entry := func() readyEntry {
			e := readyEntry{p: gptr.Ptr{Node: int32(next % 3), Addr: int32(next)}, a0: next * 3, a1: ^next, tmpl: int32(next % 5), iter: int32(next % 7)}
			next++
			return e
		}
		model := func(owner int32, e readyEntry) {
			if len(runs[owner]) == 0 {
				order = append(order, owner)
			}
			runs[owner] = append(runs[owner], e)
		}
		for i, b := range steps {
			op, arg := b>>5, int(b&31)
			owner := int32(arg&7) * 37 // sparse ids: the destination table hashes them
			switch {
			case op <= 1:
				e := entry()
				q.push(tb, int(owner), e)
				model(owner, e)
			case op == 2:
				si := tb.slot(int(owner))
				d := &tb.slots[si]
				k := arg>>3 + 1
				for j := 0; j < k; j++ {
					e := entry()
					q.link(d, e)
					model(owner, e)
				}
				q.woke(d, si, k)
			case op == 3:
				if len(order) > 0 {
					owner = order[0]
				}
				e := entry()
				q.push(tb, int(owner), e)
				model(owner, e)
			case op == 7 && arg < 4:
				rt.recycle()
				clear(runs)
				order, peak = nil, 0
			case len(order) == 0:
				// nothing to pop
			default:
				o := order[0]
				if got, want := q.pop(tb), runs[o][0]; got != want {
					t.Fatalf("step %d: pop = %+v, want %+v", i, got, want)
				}
				runs[o] = runs[o][1:]
				if len(runs[o]) == 0 {
					order = order[1:]
				}
			}

			n := 0
			for _, o := range order {
				n += len(runs[o])
			}
			h := uint64(n)
			for _, o := range order {
				h = sim.MixFP(h, uint64(o))
				for _, e := range runs[o] {
					h = sim.MixFP(h, e.p.Key())
				}
			}
			peak = max(peak, n)
			if q.len() != n {
				t.Fatalf("step %d: len = %d, want %d", i, q.len(), n)
			}
			if got := q.digest(tb); got != h {
				t.Fatalf("step %d: digest %#x, reference %#x", i, got, h)
			}
			if int(q.nodes.n) > peak {
				t.Fatalf("step %d: slab holds %d nodes, peak queued count is %d", i, q.nodes.n, peak)
			}
			free := 0
			for ni := q.free; ni >= 0; ni = q.nodes.at(ni).next {
				free++
			}
			if free+n != int(q.nodes.n) {
				t.Fatalf("step %d: %d free and %d queued nodes in a slab of %d", i, free, n, q.nodes.n)
			}
		}
	})
}
