// Package gptr provides global pointers into a distributed object space, the
// substrate for "global pointer-based data structures" in the paper. Every
// object lives in exactly one node's heap (its owner) or, for the upper
// levels of shared trees, in a replicated read-only area available on every
// node (the standard MPP idiom for the top of an octree).
//
// During the simulated computation phases objects are read-only; a remote
// fetch therefore transfers the object reference and charges its modeled
// byte size, which is what the machine model needs.
package gptr

import (
	"fmt"
	"slices"
)

// Ptr is a global pointer: an owner node and an address within its heap.
// Node == ReplNode designates the replicated area; the zero Ptr is not nil —
// use Nil.
type Ptr struct {
	Node int32
	Addr int32
}

// ReplNode marks pointers into the replicated read-only area.
const ReplNode int32 = -2

// Nil is the null global pointer.
var Nil = Ptr{Node: -1, Addr: -1}

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p.Node == -1 }

// IsReplicated reports whether p points into the replicated area.
func (p Ptr) IsReplicated() bool { return p.Node == ReplNode }

// Key returns a unique uint64 identity for the pointed-to object, used as a
// cache-model tag and map key.
func (p Ptr) Key() uint64 { return uint64(uint32(p.Node))<<32 | uint64(uint32(p.Addr)) }

// String implements fmt.Stringer.
func (p Ptr) String() string {
	switch {
	case p.IsNil():
		return "gptr(nil)"
	case p.IsReplicated():
		return fmt.Sprintf("gptr(repl:%d)", p.Addr)
	default:
		return fmt.Sprintf("gptr(%d:%d)", p.Node, p.Addr)
	}
}

// PtrBytes is the wire size of one global pointer in request messages.
const PtrBytes = 8

// Object is a value that can live in the global space. ByteSize is its
// modeled transfer size.
type Object interface {
	ByteSize() int
}

// Heap is one node's object heap.
type Heap struct {
	objs []Object
}

// Alloc places an object in the heap and returns its local address.
func (h *Heap) Alloc(o Object) int32 {
	h.objs = append(h.objs, o)
	return int32(len(h.objs) - 1)
}

// Get returns the object at addr. It panics on a dangling address (a
// programming bug, not a recoverable condition).
func (h *Heap) Get(addr int32) Object {
	if addr < 0 || int(addr) >= len(h.objs) {
		panic(fmt.Sprintf("gptr: dangling address %d (heap size %d)", addr, len(h.objs)))
	}
	return h.objs[addr]
}

// Len returns the number of objects in the heap.
func (h *Heap) Len() int { return len(h.objs) }

// Space is the global object space for one machine: one heap per node plus
// the replicated area. The application builds it before the simulation and
// the runtimes read it during the run. Every Alloc belongs to that build: a
// runtime dispatches a thread on Get of its pointer whichever node owns it,
// so under the parallel engine every node reads every heap concurrently, and
// an Alloc while a phase runs would race with those reads. The driver's
// validation mode fails a phase that changed Len.
type Space struct {
	heaps []Heap
	repl  []Object
}

// NewSpace creates a space for n nodes.
func NewSpace(n int) *Space {
	return &Space{heaps: make([]Heap, n)}
}

// Nodes returns the number of per-node heaps.
func (s *Space) Nodes() int { return len(s.heaps) }

// Len returns the number of objects in the space, replicated ones included.
func (s *Space) Len() int {
	n := len(s.repl)
	for i := range s.heaps {
		n += s.heaps[i].Len()
	}
	return n
}

// Alloc places an object in node's heap and returns its global pointer.
func (s *Space) Alloc(node int, o Object) Ptr {
	addr := s.heaps[node].Alloc(o)
	return Ptr{Node: int32(node), Addr: addr}
}

// Reserve makes room for n more objects in node's heap, so that a builder
// that knows each owner's object count pays one allocation per heap rather
// than one per doubling.
func (s *Space) Reserve(node, n int) {
	s.heaps[node].objs = slices.Grow(s.heaps[node].objs, n)
}

// AllocReplicated places an object in the replicated read-only area.
func (s *Space) AllocReplicated(o Object) Ptr {
	s.repl = append(s.repl, o)
	return Ptr{Node: ReplNode, Addr: int32(len(s.repl) - 1)}
}

// Get dereferences p regardless of owner. It is the simulator-level lookup;
// the runtimes decide whether the access is local, replicated, or requires a
// message, and charge accordingly.
func (s *Space) Get(p Ptr) Object {
	switch {
	case p.IsNil():
		panic("gptr: nil dereference")
	case p.IsReplicated():
		if p.Addr < 0 || int(p.Addr) >= len(s.repl) {
			panic(fmt.Sprintf("gptr: dangling replicated address %d", p.Addr))
		}
		return s.repl[p.Addr]
	default:
		if int(p.Node) >= len(s.heaps) || p.Node < 0 {
			panic(fmt.Sprintf("gptr: bad node %d", p.Node))
		}
		return s.heaps[p.Node].Get(p.Addr)
	}
}

// LocalOrRepl reports whether p can be dereferenced by node without
// communication.
func (s *Space) LocalOrRepl(p Ptr, node int) bool {
	return p.IsReplicated() || int(p.Node) == node
}
