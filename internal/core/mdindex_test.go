package core

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/stats"
)

// mdCounts returns how many of the runtime's M/D entries are live and how
// many were dropped since their fetch.
func mdCounts(rt *RT) (live, dropped int) {
	for ei := int32(0); ei < rt.entries.n; ei++ {
		if rt.entries.at(ei).stamp == rt.stamp {
			live++
		} else {
			dropped++
		}
	}
	return live, dropped
}

// mdModel is the M/D table as two Go maps: the live table, pointer to its
// suspended-thread count and arrival, and the set of pointers fetched and
// dropped since, which is what makes a fetch a refetch. FuzzMDIndex checks
// the index against it.
type mdModel struct {
	table   map[gptr.Ptr]*mdRef
	dropped map[gptr.Ptr]bool
	st      stats.RTStats // Fetches, Reuses, Refetches and Abandoned
	waiting int
	ready   int // threads made ready: spawns on arrived copies, and woken ones
}

type mdRef struct {
	n       int
	arrived bool
}

func newMDModel() *mdModel {
	return &mdModel{table: map[gptr.Ptr]*mdRef{}, dropped: map[gptr.Ptr]bool{}}
}

func (m *mdModel) spawn(p gptr.Ptr) {
	if r, ok := m.table[p]; ok {
		m.st.Reuses++
		if r.arrived {
			m.ready++
		} else {
			r.n++
			m.waiting++
		}
		return
	}
	m.table[p] = &mdRef{n: 1}
	m.waiting++
	m.st.Fetches++
	if m.dropped[p] {
		m.st.Refetches++
	}
}

func (m *mdModel) reply(p gptr.Ptr) {
	if r, ok := m.table[p]; ok && !r.arrived {
		r.arrived = true
		m.ready += r.n
		m.waiting -= r.n
		r.n = 0
	}
}

func (m *mdModel) drop() {
	for p := range m.table {
		m.dropped[p] = true
	}
	clear(m.table)
}

func (m *mdModel) abandon(owner int32) {
	for p, r := range m.table {
		if !r.arrived && p.Node == owner {
			m.st.Abandoned += int64(r.n)
			m.waiting -= r.n
			delete(m.table, p)
			m.dropped[p] = true
		}
	}
}

// deadOwner is the one owner an abandon declares unreachable.
type deadOwner int

func (d deadOwner) Unreachable(owner int) bool { return owner == int(d) }

// mdKeySpaces returns the pointers FuzzMDIndex draws from, all of owners 1
// to 3 of space: a small key space, 16 objects per owner, and one whose
// pointers share their home cell in every index of up to 256 cells, so every
// lookup walks a probe run. Each holds 48 pointers, more than the index's
// first size has room for, so a step sequence can grow it.
func mdKeySpaces(space *gptr.Space) (small, colliding []gptr.Ptr) {
	const perOwner, keys = 8192, 48
	home := func(p gptr.Ptr) uint64 { return p.Key() * 0x9E3779B97F4A7C15 >> 56 }
	for owner := 1; owner <= 3; owner++ {
		for a := 0; a < perOwner; a++ {
			space.Alloc(owner, obj{id: a, size: 8 + a%64})
		}
	}
	target := home(gptr.Ptr{Node: 1})
	for a := int32(0); a < perOwner; a++ {
		for owner := int32(1); owner <= 3; owner++ {
			p := gptr.Ptr{Node: owner, Addr: a}
			if a < keys/3 {
				small = append(small, p)
			}
			if home(p) == target && len(colliding) < keys {
				colliding = append(colliding, p)
			}
		}
	}
	if len(colliding) < keys {
		panic(fmt.Sprintf("only %d colliding pointers among %d", len(colliding), 3*perOwner))
	}
	return small, colliding
}

// FuzzMDIndex drives node 0's M/D index through a random sequence of remote
// spawns, replies (late and duplicate ones included), strip drops, abandons
// of one owner and recycles, and checks it after every step against the old
// two-map semantics (mdModel): the Fetches, Reuses, Refetches and Abandoned
// counters, the suspended and ready thread counts, the live set with each
// entry's waiters and arrival, the set of pointers fetched this phase, and
// that the index finds exactly those. The first byte picks the key space;
// each later pair of bytes is one step:
//
//	0-3  spawn on pointer arg
//	4    reply for pointer arg, whatever its state
//	5    strip drop: reply for every fetch in flight, then drop every copy
//	6    abandon the fetches in flight to owner 1 + arg%3
//	7    recycle the runtime for a new phase
func FuzzMDIndex(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 4, 1, 0, 1, 5, 0, 0, 1, 0, 2})
	f.Add([]byte{1, 0, 0, 0, 3, 0, 6, 6, 0, 0, 0, 4, 0, 5, 0, 0, 0, 0, 3})
	f.Add([]byte{0, 0, 5, 4, 5, 6, 1, 0, 5, 7, 0, 0, 5, 4, 5, 0, 5})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 5, 0, 0, 4, 0, 8, 7, 0, 0, 8})
	for space := byte(0); space < 2; space++ { // fetch 40 pointers, drop them, fetch them again
		grow := []byte{space}
		for k := byte(0); k < 80; k++ {
			if k == 40 {
				grow = append(grow, 5, 0)
			}
			grow = append(grow, 0, k%40)
		}
		f.Add(grow)
	}
	const nodes = 4
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(nodes)
	small, colliding := mdKeySpaces(space)
	cfg := staticCfg()
	cfg.Pipeline = false // requests stay buffered: replies come from the steps alone
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) == 0 || len(steps) > 4096 {
			return
		}
		keys := small
		if steps[0]%2 == 1 {
			keys = colliding
		}
		steps = steps[1:]
		m := machine.New(machine.DefaultT3D(nodes))
		defer m.Close()
		_, err := m.Run(func(nd *machine.Node) {
			if nd.ID() != 0 {
				return
			}
			ep := fm.NewEP(net, nd)
			rt := New(proto, ep, space, cfg, nil)
			m := newMDModel()
			for i := 0; i+1 < len(steps); i += 2 {
				op, p := steps[i]%8, keys[int(steps[i+1])%len(keys)]
				switch op {
				case 4:
					m.reply(p)
					rt.wakeReply(int(p.Node), []gptr.Ptr{p})
				case 5:
					for _, q := range keys {
						if r, ok := m.table[q]; ok && !r.arrived {
							m.reply(q)
							rt.wakeReply(int(q.Node), []gptr.Ptr{q})
						}
					}
					m.drop()
					rt.dropCopies()
				case 6:
					owner := 1 + int32(steps[i+1])%3
					m.abandon(owner)
					rt.abandonFetches(deadOwner(owner))
				case 7:
					m = newMDModel()
					rt = New(proto, ep, space, cfg, rt)
				default:
					m.spawn(p)
					rt.spawn(p, 0, uint64(i), 0)
				}
				if err := checkMDIndex(rt, m, keys); err != nil {
					t.Fatalf("step %d (op %d on %v): %v", i/2, op, p, err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// checkMDIndex compares the runtime's M/D state with the model's.
func checkMDIndex(rt *RT, m *mdModel, keys []gptr.Ptr) error {
	got, want := rt.st, m.st
	if got.Fetches != want.Fetches || got.Reuses != want.Reuses ||
		got.Refetches != want.Refetches || got.Abandoned != want.Abandoned {
		return fmt.Errorf("fetches/reuses/refetches/abandoned %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Fetches, got.Reuses, got.Refetches, got.Abandoned,
			want.Fetches, want.Reuses, want.Refetches, want.Abandoned)
	}
	if rt.waiting != m.waiting || rt.ready.len() != m.ready {
		return fmt.Errorf("%d suspended and %d ready threads, want %d and %d",
			rt.waiting, rt.ready.len(), m.waiting, m.ready)
	}
	fetched := 0
	for _, p := range keys {
		r, live := m.table[p]
		e := rt.lookup(p)
		switch {
		case !live && !m.dropped[p]:
			if e != nil {
				return fmt.Errorf("%v was never fetched, but the index finds it", p)
			}
			continue
		case e == nil:
			return fmt.Errorf("%v was fetched this phase, but the index does not find it", p)
		case e.p != p:
			return fmt.Errorf("the index finds %v's entry for %v", e.p, p)
		}
		fetched++
		switch {
		case !live && e.stamp == rt.stamp:
			return fmt.Errorf("%v was dropped, but its entry is live", p)
		case live && e.stamp != rt.stamp:
			return fmt.Errorf("%v is in the table, but its entry is stale", p)
		case live && (int(e.n) != r.n || (e.n == 0) != r.arrived):
			return fmt.Errorf("%v's entry holds %d waiters, want %d (arrived %v)", p, e.n, r.n, r.arrived)
		}
	}
	if int(rt.entries.n) != fetched {
		return fmt.Errorf("%d entries for %d pointers fetched this phase", rt.entries.n, fetched)
	}
	if live, _ := mdCounts(rt); live != len(m.table) {
		return fmt.Errorf("%d live entries, want %d", live, len(m.table))
	}
	if 2*int(rt.entries.n) > len(rt.index) && rt.entries.n > 0 {
		return fmt.Errorf("%d entries in an index of %d cells: load over one half", rt.entries.n, len(rt.index))
	}
	return nil
}

// TestColdIndexGrowsLogarithmically pins the index's growth in a cold phase:
// a node fetching n distinct pointers over many strips allocates its M/D
// index at its first size and once per doubling after — 1 + log2(2n/64)
// times, not once per pointer or per strip — ends at load above a quarter, and a warm phase over the same
// pointers, on the recycled runtime, allocates it not at all.
func TestColdIndexGrowsLogarithmically(t *testing.T) {
	const n = 4096
	w := newWorld(2)
	var ptrs []gptr.Ptr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, w.space.Alloc(1, obj{id: i}))
	}
	var rts [2]*RT
	for phase, want := range []int{bits.Len(2 * n / mdMinCells), 0} {
		var grows int
		var cells int
		m := machine.New(machine.DefaultT3D(2))
		defer m.Close()
		m.Run(func(nd *machine.Node) {
			ep := fm.NewEP(w.net, nd)
			rt := New(w.proto, ep, w.space, staticCfg(), rts[nd.ID()])
			rts[nd.ID()] = rt
			if nd.ID() == 0 {
				id := rt.Template(func(gptr.Object, uint64, uint64) {})
				cur := unsafe.SliceData(rt.index)
				rt.ForAll(n, func(i int) {
					rt.SpawnT(ptrs[i], id, 0, 0)
					if d := unsafe.SliceData(rt.index); d != cur {
						cur = d
						grows++
					}
				})
				cells = len(rt.index)
				if st := rt.Stats(); st.Fetches != n {
					t.Errorf("phase %d: %d fetches, want %d", phase, st.Fetches, n)
				}
			}
			ep.Barrier()
		})
		t.Logf("phase %d: %d distinct pointers, %d index allocations, %d cells", phase, n, grows, cells)
		if grows != want {
			t.Errorf("phase %d: %d distinct pointers allocated the index %d times, want %d", phase, n, grows, want)
		}
		if cells > 4*n {
			t.Errorf("phase %d: %d cells for %d pointers, want at most %d", phase, cells, n, 4*n)
		}
	}
}
