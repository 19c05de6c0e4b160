package core

// A seg's first segment holds seg0 elements and its second segBlock; from
// index segBase on, the slab is a directory of segBlock-element blocks.
const (
	segShift = 6
	segBlock = 1 << segShift
	seg0     = segBlock / 2
	segBase  = seg0 + segBlock
)

// seg is a slab that grows without moving what it holds. Its capacity goes
// seg0, then segBase (96), then doubles plus seg0 (224, 480, 992, ...), each
// step one new segment made the first time the ones before it are full, so a
// slab that peaks at N elements has allocated fewer than 2N+seg0 of them,
// each once, where append's growth copies every element several times over.
// A node holds about 20 waiters and entries in EM3D at 1,024 nodes, so the
// first segment is sized for that, not for the busiest slab. An element's
// address comes from its index by arithmetic and never changes: a pointer
// into the slab survives any later growth. Segments 0 and 1 sit behind
// pointers of their own, so a slab of up to segBase elements costs one
// allocation per segment; the later ones are reached through a directory of
// segBlock-element blocks, made once the slab outgrows them and grown four
// times over when full, so an index past segment 1 is a subtract, a shift, a
// mask and one lookup. reset empties the slab and keeps every segment for
// the next phase.
type seg[T any] struct {
	s0     *[seg0]T       // elements [0, seg0)
	s1     *[segBlock]T   // elements [seg0, segBase)
	blocks []*[segBlock]T // the later segments' blocks, in index order
	n      int32          // elements handed out
	c      int32          // elements the segments hold
}

// at returns the address of element i.
func (s *seg[T]) at(i int32) *T {
	switch {
	case uint32(i) < seg0:
		return &s.s0[i]
	case uint32(i) < segBase:
		return &s.s1[i-seg0]
	}
	i -= segBase
	return &s.blocks[i>>segShift][i&(segBlock-1)]
}

// push stores v in a new element and returns its index.
func (s *seg[T]) push(v T) int32 {
	if s.n == s.c {
		s.grow()
	}
	i := s.n
	s.n++
	*s.at(i) = v
	return i
}

// grow makes the next segment.
func (s *seg[T]) grow() {
	switch {
	case s.s0 == nil:
		s.s0 = new([seg0]T)
	case s.s1 == nil:
		s.s1 = new([segBlock]T)
	default:
		next := make([][segBlock]T, (s.c+seg0)/segBlock) // as many elements as the slab holds, and seg0
		if n := len(s.blocks) + len(next); n > cap(s.blocks) {
			s.blocks = append(make([]*[segBlock]T, 0, 4*n), s.blocks...)
		}
		for j := range next {
			s.blocks = append(s.blocks, &next[j])
		}
	}
	s.c = 2*s.c + seg0
}

func (s *seg[T]) reset() { s.n = 0 }
