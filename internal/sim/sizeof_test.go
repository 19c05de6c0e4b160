package sim

import (
	"testing"
	"unsafe"
)

// Layout budgets for the hot simulator structs (64-bit platforms). These are
// regression fences around deliberate packing work: Message is the mailbox
// frame every post copies and every ring slot stores, and Proc is the
// per-process scheduler record whose two cache-line pads are load-bearing
// (they shield the owner's hot fields and the cross-poster mutex from each
// other). Growing one of these is sometimes the right call — a new field can
// pay its way — but it must be a decision, not drift: if a test here fires,
// either repack the struct or raise the budget in the same change with a
// justification.
func TestHotStructSizeBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	cases := []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// 7 words: arrival + seq + from + handler + 2-word payload + bytes.
		// One more word tips the ring's per-slot copy cost over a cache line.
		{"sim.Message", unsafe.Sizeof(Message{}), 56},
		// Ring slice + head + overflow heap slice; one mailbox per process.
		{"sim.mailbox", unsafe.Sizeof(mailbox{}), 56},
		// The per-process record, pads included: five and a half cache
		// lines. The engine is one pointer (a concrete *Engine, not an
		// interface), and the lookahead every cross-process Post reads lives
		// behind it, not in each process. The process body costs one word: a
		// pointer to its coroutine (the resume and yield funcs live behind
		// it, not beside it).
		{"sim.Proc", unsafe.Sizeof(Proc{}), 352},
		// One worker shard, trailing pad included: four cache lines.
		// The barrier's wake channel and asleep word and the fold's two
		// earliest wakes live here, so the per-shard turnover touches only
		// its own shard's lines.
		{"sim.parShard", unsafe.Sizeof(parShard{}), 256},
	}
	for _, c := range cases {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}
