package gptr

import (
	"testing"
	"testing/quick"
)

type blob struct {
	id   int
	size int
}

func (b blob) ByteSize() int { return b.size }

func TestNilPtr(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if Nil.IsReplicated() {
		t.Error("Nil.IsReplicated() = true")
	}
	p := Ptr{Node: 0, Addr: 0}
	if p.IsNil() {
		t.Error("valid pointer reported nil")
	}
}

func TestAllocGet(t *testing.T) {
	s := NewSpace(4)
	p := s.Alloc(2, blob{id: 7, size: 64})
	if p.Node != 2 {
		t.Errorf("owner = %d, want 2", p.Node)
	}
	got := s.Get(p).(blob)
	if got.id != 7 || got.ByteSize() != 64 {
		t.Errorf("got %+v", got)
	}
	if s.LocalOrRepl(p, 2) != true || s.LocalOrRepl(p, 1) != false {
		t.Error("LocalOrRepl wrong")
	}
}

func TestReplicated(t *testing.T) {
	s := NewSpace(2)
	p := s.AllocReplicated(blob{id: 1, size: 8})
	if !p.IsReplicated() {
		t.Fatal("not replicated")
	}
	for node := 0; node < 2; node++ {
		if !s.LocalOrRepl(p, node) {
			t.Errorf("replicated pointer not local on node %d", node)
		}
	}
	if s.Get(p).(blob).id != 1 {
		t.Error("bad replicated get")
	}
}

func TestLenCountsEveryObject(t *testing.T) {
	s := NewSpace(3)
	if s.Len() != 0 {
		t.Fatalf("empty space holds %d objects", s.Len())
	}
	s.Alloc(0, blob{})
	s.Alloc(2, blob{})
	s.Alloc(2, blob{})
	s.AllocReplicated(blob{})
	if s.Len() != 4 {
		t.Errorf("Len = %d after three heap objects and one replicated, want 4", s.Len())
	}
}

func TestKeyUnique(t *testing.T) {
	f := func(n1, a1, n2, a2 int16) bool {
		p1 := Ptr{Node: int32(n1), Addr: int32(a1)}
		p2 := Ptr{Node: int32(n2), Addr: int32(a2)}
		return (p1 == p2) == (p1.Key() == p2.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressesSequential(t *testing.T) {
	s := NewSpace(1)
	for i := 0; i < 10; i++ {
		p := s.Alloc(0, blob{id: i})
		if p.Addr != int32(i) {
			t.Errorf("alloc %d: addr %d", i, p.Addr)
		}
	}
	for i := 0; i < 10; i++ {
		if s.Get(Ptr{Node: 0, Addr: int32(i)}).(blob).id != i {
			t.Errorf("object %d mismatched", i)
		}
	}
}

func TestDanglingPanics(t *testing.T) {
	s := NewSpace(1)
	for _, p := range []Ptr{
		{Node: 0, Addr: 5},
		{Node: 3, Addr: 0},
		{Node: ReplNode, Addr: 0},
		Nil,
	} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%v) did not panic", p)
				}
			}()
			s.Get(p)
		}()
	}
}

func TestString(t *testing.T) {
	if Nil.String() != "gptr(nil)" {
		t.Error(Nil.String())
	}
	if (Ptr{Node: ReplNode, Addr: 3}).String() != "gptr(repl:3)" {
		t.Error((Ptr{Node: ReplNode, Addr: 3}).String())
	}
	if (Ptr{Node: 1, Addr: 2}).String() != "gptr(1:2)" {
		t.Error((Ptr{Node: 1, Addr: 2}).String())
	}
}

// TestReserveMakesRoomWithoutObjects: a reserved heap takes its objects with
// no further allocation, and reserving adds no object to the space.
func TestReserveMakesRoomWithoutObjects(t *testing.T) {
	s := NewSpace(2)
	s.Reserve(1, 200) // AllocsPerRun calls its function twice
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Reserve, want 0", s.Len())
	}
	o := &blob{id: 3, size: 8}
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			s.Alloc(1, o)
		}
	}); a != 0 {
		t.Errorf("100 Allocs into a heap with room for them allocated %v times", a)
	}
	if p := s.Alloc(1, o); p.Addr != 200 {
		t.Errorf("the 201st object got address %d, want 200", p.Addr)
	}
}
