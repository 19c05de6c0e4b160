package core

import "testing"

// TestSegElementsNeverMove: a pointer taken to an element before the slab
// grows still aliases that element after it has grown through many segments,
// every element keeps its value, the slab's capacity is its segments' sum
// (one segment at a time, each twice the one before), and a reset slab keeps
// its segments and hands out the same addresses again.
func TestSegElementsNeverMove(t *testing.T) {
	const n = 20000
	var s seg[waiter]
	var first, mid *waiter
	for i := int32(0); i < n; i++ {
		want := segMin
		for want <= int(i) {
			want = 2*want + segMin
		}
		if got := s.push(waiter{a0: uint64(i), next: i}); got != i {
			t.Fatalf("push %d returned index %d", i, got)
		}
		if int(s.c) != want {
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
