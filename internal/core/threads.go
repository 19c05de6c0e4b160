package core

import (
	"fmt"

	"dpa/internal/gptr"
)

// Template is a non-blocking thread body. It receives the (local or renamed)
// object for the pointer its creation site was labeled with and the two
// frame words the site passed to SpawnT, and must not block; it may create
// further threads.
type Template = func(obj gptr.Object, a0, a1 uint64)

// Thread is the closure form of a thread body, Spawn's parameter: its frame
// is whatever the closure captured.
type Thread = func(obj gptr.Object)

// Templates is one phase's template table, the same for every runtime: Add
// issues ids, Index turns one into the index a thread record holds, and Run
// runs the record's template. The zero value is an empty table.
type Templates struct {
	fns  []Template
	base int // ids issued on this storage before this phase
}

// Add registers fn for the rest of the phase and returns its id; who names
// the runtime in the panic for a nil body.
func (t *Templates) Add(who string, fn Template) int {
	if fn == nil {
		panic(who + ": Template with nil body")
	}
	t.fns = append(t.fns, fn)
	return t.base + len(t.fns)
}

// Index panics at the creation site unless this phase issued id.
func (t *Templates) Index(who string, id int) int32 {
	i := id - t.base - 1
	if i < 0 || i >= len(t.fns) {
		panic(fmt.Sprintf("%s: SpawnT with unknown template id %d (%d registered this phase, ids %d..%d)",
			who, id, len(t.fns), t.base+1, t.base+len(t.fns)))
	}
	return int32(i)
}

// Run runs the template at index i.
func (t *Templates) Run(i int32, obj gptr.Object, a0, a1 uint64) { t.fns[i](obj, a0, a1) }

// Reset starts a phase on the same storage. The ids issued so far die: a
// stale one is unknown to Index, not an alias of a new template.
func (t *Templates) Reset() {
	clear(t.fns)
	*t = Templates{fns: t.fns[:0], base: t.base + len(t.fns)}
}

// Closures is the closure form of a thread over a runtime's template form:
// Spawn parks fn in a recycled slot and spawns the closure template, an
// ordinary template registered on the phase's first Spawn, on the slot. A
// thread abandoned under degradation keeps its slot until the phase ends.
// The zero value is ready for a phase.
type Closures struct {
	fns  []Thread
	free []int32
	id   int // the closure template's id, 0 before the phase's first Spawn
}

// Spawn parks fn and spawns it on p through rt; who names the runtime in the
// panic for a nil fn.
func (c *Closures) Spawn(rt interface {
	Template(fn Template) int
	SpawnT(p gptr.Ptr, id int, a0, a1 uint64)
}, who string, p gptr.Ptr, fn Thread) {
	if fn == nil {
		panic(who + ": Spawn with nil thread")
	}
	if c.id == 0 {
		c.id = rt.Template(c.run)
	}
	slot := int32(len(c.fns))
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
		c.fns[slot] = fn
	} else {
		c.fns = push(c.fns, fn)
	}
	rt.SpawnT(p, c.id, uint64(slot), 0)
}

// run is the closure template: it frees the thread's slot and calls fn.
func (c *Closures) run(obj gptr.Object, slot, _ uint64) {
	fn := c.fns[slot]
	c.fns[slot] = nil
	c.free = push(c.free, int32(slot))
	fn(obj)
}

// Reset starts a phase on the same storage, dropping any parked closure.
func (c *Closures) Reset() {
	clear(c.fns)
	*c = Closures{fns: c.fns[:0], free: c.free[:0]}
}

// slabMin is the capacity Closures' slices start with: one allocation where
// append's doubling from one element would make seven before a strip of 50
// fits — on every phase's first strip on fresh storage.
const slabMin = 64

// push is append for Closures' slices.
func push[T any](slab []T, v T) []T {
	if cap(slab) == 0 {
		slab = make([]T, 0, slabMin)
	}
	return append(slab, v)
}
