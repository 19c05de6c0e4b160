package core

import (
	"bytes"
	"testing"
)

// segCap is the capacity a slab reaches to hold n elements: seg0, segBase,
// then twice the last plus seg0.
func segCap(n int) int32 {
	c := int32(0)
	for int(c) < n {
		c = 2*c + seg0
	}
	return c
}

// TestSegElementsNeverMove: a pointer taken to an element before the slab
// grows still aliases that element after it has grown through many segments,
// every element keeps its value, the slab's capacity is its segments' sum
// (one segment at a time: seg0, segBase, then twice the last plus seg0), and
// a reset slab keeps its segments and hands out the same addresses again.
func TestSegElementsNeverMove(t *testing.T) {
	const n = 20000
	var s seg[waiter]
	var first, mid *waiter
	for i := int32(0); i < n; i++ {
		if got := s.push(waiter{a0: uint64(i), next: i}); got != i {
			t.Fatalf("push %d returned index %d", i, got)
		}
		if want := segCap(int(i) + 1); s.c != want {
			t.Fatalf("after %d pushes the slab holds %d elements, want %d", i+1, s.c, want)
		}
		switch i {
		case 0:
			first = s.at(0)
		case 100:
			mid = s.at(100)
		}
	}
	if s.n != n {
		t.Fatalf("len %d, want %d", s.n, n)
	}
	if first != s.at(0) || mid != s.at(100) {
		t.Fatal("growing the slab moved an element a pointer was taken to")
	}
	first.tmpl, mid.tmpl = 7, 9
	if s.at(0).tmpl != 7 || s.at(100).tmpl != 9 {
		t.Fatal("a pointer taken before growth no longer aliases its element")
	}
	for i := int32(0); i < n; i++ {
		if w := s.at(i); w.a0 != uint64(i) || w.next != i {
			t.Fatalf("element %d holds %+v", i, *w)
		}
	}
	capacity := s.c
	s.reset()
	if s.n != 0 || s.c != capacity {
		t.Fatalf("reset left len %d and cap %d, want 0 and %d", s.n, s.c, capacity)
	}
	if s.push(waiter{}) != 0 || s.at(0) != first {
		t.Fatal("a reset slab does not reuse its first segment")
	}
}

// FuzzSeg drives a slab through a random sequence of pushes, writes through
// old pointers and resets against a plain slice, and after every step
// compares the length, the capacity, every element's value and every
// element's address: the pointer taken when an element was pushed must still
// alias it, and an index pushed again after a reset must get the address it
// had before. Each input byte is one step; its top two bits pick the
// operation and the low six its argument:
//
//	3  push (arg+1)*16 elements
//	2  push arg+1 elements
//	1  write through the pointer taken at push to element arg*len/64
//	0  reset when arg is 0, else push one element
//
// A few bytes cross the 31/32 and 95/96 segment boundaries, block boundaries
// every 64 elements past 96, and the directory's growth past 480 elements.
func FuzzSeg(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x9e, 0x01, 0x80, 0xbd, 0x01, 0x01, 0x41, 0x7f}) // 31, 32, 33, 95, 96, 97
	f.Add([]byte{0xc5, 0x8f, 0x40, 0x7f, 0x00, 0xc5, 0x8f, 0x60}) // 96 then 112, reset, again
	f.Add(append(bytes.Repeat([]byte{0xc7}, 5), 0x40, 0x60, 0x7f, 0x00, 0xc9, 0x7f))
	f.Add(bytes.Repeat([]byte{0xff, 0x5a, 0x00, 0xff, 0xff, 0x33}, 3)) // directory growth across resets

	f.Fuzz(func(t *testing.T, steps []byte) {
		var s seg[waiter]
		var model []waiter
		var addrs []*waiter // every address an index has had, reset or not
		peak := 0
		next := uint64(1)
		push := func(i int) {
			v := waiter{a0: next, a1: ^next, tmpl: int32(next % 5), next: int32(next)}
			next++
			j := s.push(v)
			if int(j) != len(model) {
				t.Fatalf("step %d: push returned index %d, want %d", i, j, len(model))
			}
			model = append(model, v)
			p := s.at(j)
			if int(j) < len(addrs) {
				if addrs[j] != p {
					t.Fatalf("step %d: index %d moved across a reset", i, j)
				}
			} else {
				addrs = append(addrs, p)
			}
			peak = max(peak, len(model))
		}
		for i, b := range steps {
			op, arg := b>>6, int(b&63)
			switch {
			case op == 3:
				for k := 0; k < (arg+1)*16; k++ {
					push(i)
				}
			case op == 2:
				for k := 0; k <= arg; k++ {
					push(i)
				}
			case op == 1:
				if len(model) > 0 {
					j := arg * len(model) / 64
					addrs[j].a0 += 1000
					model[j].a0 += 1000
				}
			case arg == 0:
				s.reset()
				model = model[:0]
			default:
				push(i)
			}
			if int(s.n) != len(model) {
				t.Fatalf("step %d: len %d, want %d", i, s.n, len(model))
			}
			if want := segCap(peak); s.c != want {
				t.Fatalf("step %d: capacity %d after a peak of %d, want %d", i, s.c, peak, want)
			}
			for j := range model {
				p := s.at(int32(j))
				if p != addrs[j] {
					t.Fatalf("step %d: element %d moved", i, j)
				}
				if *p != model[j] {
					t.Fatalf("step %d: element %d = %+v, want %+v", i, j, *p, model[j])
				}
			}
		}
	})
}
