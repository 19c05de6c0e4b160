package core

// segShift sizes a seg's segments: segment k holds segMin<<k elements.
const (
	segShift = 6
	segMin   = 1 << segShift
)

// seg is a slab that grows without moving what it holds. Segment k holds
// segMin<<k elements and is made the first time the ones before it are full,
// so a slab that peaks at N elements has allocated fewer than 2N+segMin of
// them, each once, where append's growth copies every element several times
// over. An element's address comes from its index by arithmetic and never
// changes: a pointer into the slab survives any later growth. Segments 0 and
// 1 sit behind pointers of their own, so a slab of up to 3*segMin elements
// costs one allocation per segment; the later ones are reached through a
// directory of segMin-element blocks, made once the slab outgrows them and
// grown four times over when full, so an index past segment 1 is a shift, a
// mask and one lookup. reset empties the slab and keeps every segment for
// the next phase.
type seg[T any] struct {
	s0     *[segMin]T     // elements [0, segMin)
	s1     *[2 * segMin]T // elements [segMin, 3*segMin)
	blocks []*[segMin]T   // the later segments' blocks, in index order
	n      int32          // elements handed out
	c      int32          // elements the segments hold
}

// at returns the address of element i.
func (s *seg[T]) at(i int32) *T {
	switch {
	case uint32(i) < segMin:
		return &s.s0[i]
	case uint32(i) < 3*segMin:
		return &s.s1[i-segMin]
	}
	return &s.blocks[i>>segShift-3][i&(segMin-1)]
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
		s.s0 = new([segMin]T)
	case s.s1 == nil:
		s.s1 = new([2 * segMin]T)
	default:
		next := make([][segMin]T, s.c/segMin+1) // as many blocks as the slab holds, and one
		if n := len(s.blocks) + len(next); n > cap(s.blocks) {
			s.blocks = append(make([]*[segMin]T, 0, 4*n), s.blocks...)
		}
		for j := range next {
			s.blocks = append(s.blocks, &next[j])
		}
	}
	s.c = 2*s.c + segMin
}

func (s *seg[T]) reset() { s.n = 0 }
