package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// FuzzReadyQueue drives the block FIFO through a random sequence of pushes,
// pops, popBacks and runtime recycles against a plain slice: every pop and
// popBack must return the model's oldest or newest entry, and after every
// step each must visit the model's entries in order, each at the address it
// was pushed to (an entry never moves while it is queued). Each input byte is one step; its
// top two bits pick the operation and the low six its argument:
//
//	3  push arg+1 entries
//	2  push one entry
//	1  pop arg>>1+1 entries, from the back when arg is odd
//	0  recycle the runtime when arg is 0, else pop one, from the back when
//	   arg is odd
//
// Bursts cross block boundaries within a few bytes. The ring must hold no
// more than twice the blocks the peak queued count needs, and a recycle keeps
// every block for the next phase.
func FuzzReadyQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x41, 0x43, 0x01})
	// Fill the first two blocks, pop the first, wrap the tail round
	// into it and grow while wrapped: the new chunk goes in between the tail's
	// block and the head's.
	f.Add([]byte{0xff, 0xff, 0x7e, 0x7e, 0xff, 0x80, 0xc4, 0x7f, 0x7e, 0x7e, 0x7e})
	// LIFO across block boundaries, then FIFO and LIFO interleaved.
	f.Add(append(bytes.Repeat([]byte{0xff}, 4), bytes.Repeat([]byte{0x7f}, 10)...))
	f.Add(bytes.Repeat([]byte{0xe0, 0x81, 0x5f, 0xd3, 0x01, 0x42, 0x80, 0x03}, 12))
	// Fill, recycle mid-stream, fill again.
	f.Add([]byte{0xff, 0xff, 0xff, 0x4a, 0x00, 0xff, 0xff, 0xff, 0xff, 0x7e, 0x7f})

	f.Fuzz(func(t *testing.T, steps []byte) {
		var rt RT
		rt.recycle()
		q := &rt.ready
		var model []readyEntry
		var addrs []*readyEntry
		peak := 0
		next := uint64(1)
		push := func() {
			e := readyEntry{p: gptr.Ptr{Addr: int32(next)}, a0: next * 3, a1: ^next, tmpl: int32(next % 5), iter: int32(next % 7)}
			next++
			q.push(e)
			model = append(model, e)
			addrs = append(addrs, &q.tail[q.to-1])
			peak = max(peak, len(model))
		}
		pop := func(i int, back bool) {
			if len(model) == 0 {
				return
			}
			if back {
				last := len(model) - 1
				if got, want := q.popBack(), model[last]; got != want {
					t.Fatalf("step %d: popBack = %+v, want %+v", i, got, want)
				}
				model, addrs = model[:last], addrs[:last]
				return
			}
			if got, want := q.pop(), model[0]; got != want {
				t.Fatalf("step %d: pop = %+v, want %+v", i, got, want)
			}
			model, addrs = model[1:], addrs[1:]
		}
		for i, b := range steps {
			op, arg := b>>6, int(b&63)
			switch {
			case op == 3:
				for k := 0; k <= arg; k++ {
					push()
				}
			case op == 2:
				push()
			case op == 1:
				for k := 0; k <= arg>>1; k++ {
					pop(i, arg&1 == 1)
				}
			case arg == 0:
				blocks := len(q.blocks)
				rt.recycle()
				model, addrs = nil, nil
				if len(q.blocks) != blocks {
					t.Fatalf("step %d: recycle left %d of the queue's %d blocks", i, len(q.blocks), blocks)
				}
			default:
				pop(i, arg&1 == 1)
			}
			if q.len() != len(model) {
				t.Fatalf("step %d: len = %d, want %d", i, q.len(), len(model))
			}
			j := 0
			q.each(func(e *readyEntry) {
				switch {
				case j >= len(model):
					t.Fatalf("step %d: each visits more than the %d entries queued", i, len(model))
				case e != addrs[j]:
					t.Fatalf("step %d: entry %d moved", i, j)
				case *e != model[j]:
					t.Fatalf("step %d: entry %d = %+v, want %+v", i, j, *e, model[j])
				}
				j++
			})
			if j != len(model) {
				t.Fatalf("step %d: each visits %d of the %d entries queued", i, j, len(model))
			}
			if q.tail != nil && (q.head != q.blocks[q.hb] || q.tail != q.blocks[q.tb]) {
				t.Fatalf("step %d: the held head and tail blocks are not the ring's blocks %d and %d", i, q.hb, q.tb)
			}
			if need := (peak + readyBlockLen - 1) / readyBlockLen; len(q.blocks) > max(2*need, readyFirstChunk) {
				t.Fatalf("step %d: %d blocks in the ring for a peak of %d entries", i, len(q.blocks), peak)
			}
		}
	})
}

// crashSeed returns a fault seed under which exactly node doomed, of nodes,
// is scheduled to crash.
func crashSeed(t *testing.T, nodes, doomed int, fp sim.FaultParams) uint64 {
	t.Helper()
	for fp.Seed = 1; fp.Seed < 1<<16; fp.Seed++ {
		plan := sim.NewFaultPlan(fp)
		ok := true
		for n := 0; n < nodes && ok; n++ {
			_, d := plan.CrashTime(n)
			ok = d == (n == doomed)
		}
		if ok {
			return fp.Seed
		}
	}
	t.Fatal("no seed dooms exactly the requested node")
	return 0
}

// TestWaitersRunInSpawnOrder: threads suspended on one in-flight pointer run
// in the order they were spawned, back to back, however their chain's nodes
// are scattered over the waiter slab. Node 0 spawns k threads on each of two
// objects of node 1, alternating between the two — and between the template
// and the closure form — so the two chains interleave in the slab; a second
// round on two more objects then builds its chains from the free list the
// first round's wake left, which is in neither spawn nor index order. In the
// abandoned rows node 0 first does the same on two objects of node 2, which
// has crashed: those chains go back to the free list through
// abandonUnreachable instead of a wake, their closures staying parked until
// the phase ends — and do so again at the end, when the same two objects are
// asked for a second time.
func TestWaitersRunInSpawnOrder(t *testing.T) {
	const nodes, k = 3, 7
	planned := staticCfg()
	planned.Planned = true
	for _, c := range []struct {
		name    string
		cfg     Config
		abandon bool
	}{
		{"static", staticCfg(), false},
		{"planned", planned, false},
		{"static/abandoned", staticCfg(), true},
		{"planned/abandoned", planned, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			mcfg := machine.DefaultT3D(nodes)
			if c.abandon {
				fp := sim.FaultParams{CrashRate: 0.5, CrashAt: 1000}
				fp.Seed = crashSeed(t, nodes, 2, fp)
				mcfg.Faults = machine.FaultConfig{FaultParams: fp, Reliable: true, RelRTO: 2048, RelMaxRetries: 3}
			}
			net := fm.NewNet()
			proto := RegisterProto(net)
			space := gptr.NewSpace(nodes)
			var first, second, dead [2]gptr.Ptr
			for i := range first {
				first[i] = space.Alloc(1, obj{id: i})
				second[i] = space.Alloc(1, obj{id: 10 + i})
				dead[i] = space.Alloc(2, obj{id: 20 + i})
			}

			var log []string
			// round spawns the 2k interleaved threads on the pair and drains.
			round := func(rt *RT, id int, pair [2]gptr.Ptr, tag string) {
				rt.ForAll(1, func(int) {
					for i := 0; i < 2*k; i++ {
						which, seq := i%2, i/2
						if seq%2 == 0 {
							rt.SpawnT(pair[which], id, uint64(which), uint64(seq))
						} else {
							rt.Spawn(pair[which], func(gptr.Object) {
								log = append(log, fmt.Sprintf("%s%d.%d", tag, which, seq))
							})
						}
					}
				})
			}
			m := machine.New(mcfg)
			defer m.Close()
			_, err := m.Run(func(nd *machine.Node) {
				ep := fm.NewEP(net, nd)
				rt := New(proto, ep, space, c.cfg, nil)
				switch nd.ID() {
				case 0:
					tag := "a"
					id := rt.Template(func(_ gptr.Object, which, seq uint64) {
						log = append(log, fmt.Sprintf("%s%d.%d", tag, which, seq))
					})
					if c.abandon {
						for nd.Now() < 50_000 { // node 2 goes down; keep acking node 1
							nd.Charge(sim.Compute, 500)
							ep.Poll()
						}
						round(rt, id, dead, "x")
						if got := rt.Stats().Abandoned; got != 2*k {
							t.Errorf("%d threads abandoned, want %d", got, 2*k)
						}
						parked := len(rt.closures.fns) - len(rt.closures.free)
						if rt.waiting != 0 || parked != 2*(k/2) {
							t.Errorf("abandon left waiting=%d and %d closure slots taken, want 0 and %d",
								rt.waiting, parked, 2*(k/2))
						}
					}
					round(rt, id, first, tag)
					tag = "b"
					round(rt, id, second, tag)
					if c.abandon {
						// An abandoned fetch left the table like a dropped
						// copy: asking again is a refetch.
						round(rt, id, dead, "x")
						if st := rt.Stats(); st.Refetches != 2 || st.Abandoned != 4*k {
							t.Errorf("second round on the dead owner: %d refetches and %d abandoned, want 2 and %d",
								st.Refetches, st.Abandoned, 4*k)
						}
					}
				case 2:
					if c.abandon {
						for { // serve until the scheduled crash unwinds the node
							ep.WaitAndDispatch()
						}
					}
				}
				ep.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, tag := range []string{"a", "b"} {
				for which := 0; which < 2; which++ {
					for seq := 0; seq < k; seq++ {
						want = append(want, fmt.Sprintf("%s%d.%d", tag, which, seq))
					}
				}
			}
			if !slices.Equal(log, want) {
				t.Errorf("threads ran in order\n  %v\nwant\n  %v", log, want)
			}
		})
	}
}
