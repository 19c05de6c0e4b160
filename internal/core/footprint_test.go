package core

import (
	"runtime"
	"testing"
	"unsafe"

	"dpa/internal/fm"
	"dpa/internal/gptr"
	"dpa/internal/machine"
	"dpa/internal/sim"
)

// nodeFootprint returns the bytes a cold phase allocates per node on a fresh
// machine of the given size, in which each node spawns threads threads on
// objects of as many other nodes: every thread fetches, suspends on an entry
// of its own and is readied by its reply. Object allocation is outside the
// measurement; the machine, its processes and endpoints, and the runtimes
// built with no previous storage are inside it. The Go runtime may allocate
// behind the measurement's back (a GC worker starting, say); the smallest of
// a few tries is the program's own figure. Each try closes its machine, so
// the next one's coroutines run on the goroutines it gave back rather than
// paying the Go runtime for new ones.
func nodeFootprint(t *testing.T, nodes, threads int) uint64 {
	t.Helper()
	net := fm.NewNet()
	proto := RegisterProto(net)
	space := gptr.NewSpace(nodes)
	ptrs := make([][]gptr.Ptr, nodes)
	for n := range ptrs {
		for i := 0; i < threads; i++ {
			ptrs[n] = append(ptrs[n], space.Alloc(n, obj{id: i}))
		}
	}
	mcfg := machine.DefaultT3D(nodes)
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		ran := make([]int, nodes)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		m := machine.New(mcfg)
		_, err := m.Run(func(nd *machine.Node) {
			me := nd.ID()
			ep := fm.NewEP(net, nd)
			rt := New(proto, ep, space, staticCfg(), nil)
			id := rt.Template(func(gptr.Object, uint64, uint64) { ran[me]++ })
			rt.ForAll(threads, func(i int) {
				rt.SpawnT(ptrs[(me+1+i)%nodes][i], id, uint64(i), 0)
			})
			ep.Barrier()
		})
		runtime.ReadMemStats(&ms1)
		m.Close() // its goroutines go back to the Go runtime for the next try
		if err != nil {
			t.Fatal(err)
		}
		for n, k := range ran {
			if k != threads {
				t.Fatalf("node %d ran %d of its %d threads", n, k, threads)
			}
		}
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return least / uint64(nodes)
}

// TestNodeFootprint pins what one node of a 256-node machine allocates for a
// cold phase of 8 threads, each on an object of a different node — the paper
// bounds a node's thread state by what it holds, and a node that holds 8
// threads should pay for about that, not for the busiest node's peak. The
// budget is built from the element sizes, one row per container a node's
// first phase sizes, plus one measured row for everything else. A failing
// test means a node's first storage changed size: restore it, or re-derive
// the row in the same change and say why the node should pay for it. The
// pin holds both ways: first segments back at 64 elements (+1,536 bytes)
// fail it, and so do 16-message heap and drain seeds again (−1,792 bytes),
// which busier nodes outgrow by append.
func TestNodeFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is calibrated for 64-bit platforms")
	}
	const nodes, threads = 256, 8
	const slack = 256 // bytes per node either way: the race detector adds up to 130
	rows := []struct {
		name  string
		bytes uintptr
	}{
		// The runtime, at most 1,144 bytes (TestHotStructSizeBudgets) with
		// the allocator's 8-byte header for a pointerful object over 512
		// bytes: the 1,152-byte size class.
		{"core.RT", 1152},
		// The first segments of the M/D entry and waiter slabs: 32 each,
		// for 8 entries and 8 waiters.
		{"M/D entry segment 0", 32 * unsafe.Sizeof(dEntry{})},
		{"waiter segment 0", 32 * unsafe.Sizeof(waiter{})},
		// The M/D index at its first size, 64 cells: room for 32 pointers,
		// as many as the entry segment holds.
		{"M/D index", mdMinCells * unsafe.Sizeof(int32(0))},
		// The ready queue's first chunk, one 64-entry block, and its ring
		// of two block pointers.
		{"ready queue", 64*unsafe.Sizeof(readyEntry{}) + 2*8},
		// The destination table at its first size, 8 owners: the slots
		// (448 bytes, under the 512-byte line where the allocator adds its
		// 8-byte header, so the 448-byte class), the ascending-owner list
		// and an index of 16 cells.
		{"destination table", 8*unsafe.Sizeof(destState{}) + 8*4 + 16*unsafe.Sizeof(destRef{})},
		// The mailbox's three lanes carved from one slab: 16 ring
		// messages, 32 overflow-heap messages and 32 drain-buffer ones.
		{"mailbox seeds", (16 + 32 + 32) * unsafe.Sizeof(sim.Message{})},
		// The simulated process and its coroutine, made on the node's
		// first phase and kept by every later one, measured with
		// -memprofilerate=1 under Go 1.24: the sim.Proc (384), iter.Pull's
		// state (272) and its body closure (64), and the coro with the
		// closure its loop runs in (48).
		{"process and its coroutine", 768},
		// The node's data-cache tags, its window on the slab the machine
		// cuts every node's tags from: one word per line.
		{"data-cache tags", uintptr(machine.DefaultT3D(nodes).CacheLines) * 8},
		// Everything else, measured the same way: the fetch records' free
		// list, record chunk and pointer chunk (≈ 1,010 bytes), the
		// endpoint and the machine's per-node state besides the tags
		// (≈ 465), and the thread template (≈ 55).
		{"fetch records, endpoint, template", 1536},
	}
	var budget uintptr
	for _, r := range rows {
		t.Logf("%-40s %5d bytes", r.name, r.bytes)
		budget += r.bytes
	}
	got := nodeFootprint(t, nodes, threads)
	t.Logf("a node allocates %d bytes for a cold %d-thread phase at %d nodes (budget %d ± %d)", got, threads, nodes, budget, slack)
	if d := int64(got) - int64(budget); d > slack || d < -slack {
		t.Errorf("a node allocates %d bytes for a cold %d-thread phase at %d nodes, %+d against its %d-byte budget (± %d): re-derive the rows",
			got, threads, nodes, d, budget, slack)
	}
}
