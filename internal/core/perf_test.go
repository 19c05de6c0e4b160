package core

import (
	"testing"

	"dpa/internal/gptr"
)

// wakeFixture fabricates the state onFetchReply hands to scatterReply: a
// table of in-flight entries with suspended waiters and a reply batch
// covering all of them. scatterReply touches only host-side runtime state
// (table, owner queue, counters), so no machine or endpoint is needed.
type wakeFixture struct {
	rt      *RT
	rep     *fetchReply
	entries []*dEntry
	waiters int
}

func newWakeFixture(nodes, ptrs, waiters int) *wakeFixture {
	space := gptr.NewSpace(nodes)
	rt := &RT{table: make(map[gptr.Ptr]*dEntry), adaptive: true, nodes: nodes}
	f := &wakeFixture{rt: rt, rep: &fetchReply{}, waiters: waiters}
	fn := func(gptr.Object) {}
	for i := 0; i < ptrs; i++ {
		p := space.Alloc(1, obj{id: i})
		e := &dEntry{}
		for w := 0; w < waiters; w++ {
			e.waiters = append(e.waiters, fn)
		}
		rt.table[p] = e
		f.rep.ptrs = append(f.rep.ptrs, p)
		f.rep.objs = append(f.rep.objs, obj{id: i})
		f.entries = append(f.entries, e)
	}
	f.arm()
	return f
}

// arm (re)suspends every waiter so one more scatter/drain round can run. It
// reuses the slices grown by earlier rounds, so steady-state rounds are
// allocation-free — which is exactly what the zero-alloc test asserts.
func (f *wakeFixture) arm() {
	fn := func(gptr.Object) {}
	for _, e := range f.entries {
		e.arrived = false
		e.obj = nil
		e.waiters = e.waiters[:0]
		for w := 0; w < f.waiters; w++ {
			e.waiters = append(e.waiters, fn)
		}
	}
	f.rt.waiting = len(f.entries) * f.waiters
	f.rt.arrivedBytes = 0
}

// round delivers the batch and runs every woken thread to exhaustion.
func (f *wakeFixture) round() {
	f.rt.scatterReply(1, f.rep)
	for f.rt.oq.len() > 0 {
		e := f.rt.oq.pop(&f.rt.dests)
		e.fn(e.obj)
	}
}

func TestScatterReplySteadyStateAllocsNothing(t *testing.T) {
	f := newWakeFixture(4, 64, 4)
	f.round() // warm-up sizes the run lists and owner order
	allocs := testing.AllocsPerRun(100, func() {
		f.arm()
		f.round()
	})
	if allocs != 0 {
		t.Fatalf("batched reply scatter allocated %.1f times per round, want 0", allocs)
	}
}

// recycle is the phase seam as the runtime sees it: New's reset of a recycled
// arena, then the same fetch state rebuilt — table entries drawn from the
// free list the reset returned them to, re-keyed into the emptied map.
func (f *wakeFixture) recycle() {
	nodes := f.rt.nodes
	f.rt.recycle()
	f.rt.adaptive, f.rt.nodes = true, nodes
	for i, p := range f.rep.ptrs {
		e := f.rt.pool.getEntry()
		f.rt.table[p] = e
		f.entries[i] = e
	}
	f.arm()
}

// TestScatterReplyOnRecycledArenaAllocsNothing extends the steady-state pin
// across the phase seam: on a recycled arena the very first fetch → reply →
// scatter → run round of a phase — no warm-up inside the phase — allocates
// nothing, because the map buckets, pooled entries with their waiter lists,
// destination slots, run lists and the owner FIFO all survived the reset.
func TestScatterReplyOnRecycledArenaAllocsNothing(t *testing.T) {
	f := newWakeFixture(4, 64, 4)
	f.round() // the first phase builds the storage
	allocs := testing.AllocsPerRun(100, func() {
		f.recycle()
		f.round()
	})
	if allocs != 0 {
		t.Fatalf("first round of a phase on a recycled arena allocated %.1f times, want 0", allocs)
	}
	if f.rt.oq.len() != 0 || f.rt.waiting != 0 || len(f.rt.table) != 64 {
		t.Fatalf("recycled rounds did not run the full batch: queued=%d waiting=%d table=%d",
			f.rt.oq.len(), f.rt.waiting, len(f.rt.table))
	}
}

func TestScatterReplyWakesAllWaitersOnce(t *testing.T) {
	f := newWakeFixture(4, 16, 3)
	f.rt.scatterReply(1, f.rep)
	if got, want := f.rt.oq.len(), 16*3; got != want {
		t.Fatalf("owner queue holds %d entries, want %d", got, want)
	}
	if f.rt.waiting != 0 {
		t.Fatalf("waiting = %d after scatter, want 0", f.rt.waiting)
	}
	// A second delivery of the same (now arrived) batch must wake nothing.
	f.rt.scatterReply(1, f.rep)
	if got := f.rt.oq.len(); got != 16*3 {
		t.Fatalf("duplicate delivery changed queue length to %d", got)
	}
}

func BenchmarkOwnerMajorWake(b *testing.B) {
	for _, cfg := range []struct {
		name          string
		ptrs, waiters int
	}{
		{"16ptrs x 1waiter", 16, 1},
		{"16ptrs x 4waiters", 16, 4},
		{"128ptrs x 4waiters", 128, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			f := newWakeFixture(16, cfg.ptrs, cfg.waiters)
			f.round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.arm()
				f.round()
			}
		})
	}
}
