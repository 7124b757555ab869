package proto

import (
	"math/bits"

	"dsmsim/internal/digest"
)

// Copyset is a set of small non-negative integers — node ids in sharer
// and writer sets, block ids in delayed-invalidation buffers. It is
// tuned for the two regimes the simulator actually sees:
//
//   - Members below 64 (every cluster the paper evaluates) live in a
//     single inline uint64 word: no heap allocation at all, and every
//     operation is one mask instruction.
//   - Members at or above 64 (the 256–1024-node configurations) spill
//     into a paged bitmap: fixed 4096-bit pages allocated lazily, so a
//     set over a large index space (e.g. pending-invalidation blocks in
//     a multi-megabyte heap) costs memory proportional to the pages it
//     touches, not to the index range.
//
// Once warm, Add/Remove/Contains/Count/ForEach/Clear are alloc-free:
// Clear zeroes pages in place and keeps them for reuse. The zero value
// is an empty set ready for use. Copyset is not safe for concurrent
// mutation, matching the single-threaded event loop it serves.
type Copyset struct {
	inline uint64               // members in [0, 64)
	pages  []*[pageWords]uint64 // members ≥ 64; page p covers [p·pageBits, (p+1)·pageBits)
}

const (
	pageBits  = 4096 // members per spill page
	pageWords = pageBits / 64
)

// page returns the spill page holding v (≥ 64), allocating it — and
// growing the page table — on first touch.
func (s *Copyset) page(v int) *[pageWords]uint64 {
	p := v / pageBits
	if p >= len(s.pages) {
		grown := make([]*[pageWords]uint64, p+1)
		copy(grown, s.pages)
		s.pages = grown
	}
	if s.pages[p] == nil {
		s.pages[p] = new([pageWords]uint64)
	}
	return s.pages[p]
}

// Add inserts v into the set.
func (s *Copyset) Add(v int) {
	if v < 64 {
		s.inline |= 1 << uint(v)
		return
	}
	s.page(v)[(v/64)%pageWords] |= 1 << uint(v%64)
}

// Remove deletes v from the set; removing an absent member is a no-op.
func (s *Copyset) Remove(v int) {
	if v < 64 {
		s.inline &^= 1 << uint(v)
		return
	}
	p := v / pageBits
	if p < len(s.pages) && s.pages[p] != nil {
		s.pages[p][(v/64)%pageWords] &^= 1 << uint(v%64)
	}
}

// Contains reports whether v is in the set.
func (s *Copyset) Contains(v int) bool {
	if v < 64 {
		return s.inline>>uint(v)&1 != 0
	}
	p := v / pageBits
	if p >= len(s.pages) || s.pages[p] == nil {
		return false
	}
	return s.pages[p][(v/64)%pageWords]>>uint(v%64)&1 != 0
}

// Count returns the cardinality of the set.
func (s *Copyset) Count() int {
	n := bits.OnesCount64(s.inline)
	for _, pg := range s.pages {
		if pg == nil {
			continue
		}
		for _, w := range pg {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Empty reports whether the set has no members.
func (s *Copyset) Empty() bool {
	if s.inline != 0 {
		return false
	}
	for _, pg := range s.pages {
		if pg == nil {
			continue
		}
		for _, w := range pg {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// Clear empties the set in place. Spill pages are zeroed and retained,
// so a cleared set re-fills without allocating.
func (s *Copyset) Clear() {
	s.inline = 0
	for _, pg := range s.pages {
		if pg != nil {
			*pg = [pageWords]uint64{}
		}
	}
}

// ForEach calls fn for every member in ascending order. The set must
// not be mutated during iteration.
func (s *Copyset) ForEach(fn func(v int)) {
	forWord(s.inline, 0, fn)
	for p, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := p * pageBits
		for i, w := range pg {
			if w != 0 {
				forWord(w, base+i*64, fn)
			}
		}
	}
}

func forWord(w uint64, base int, fn func(v int)) {
	for w != 0 {
		fn(base + bits.TrailingZeros64(w))
		w &= w - 1
	}
}

// Fold implements digest.Folder: the members, ascending, so a set digests
// the same whatever spill pages it happens to hold.
func (s *Copyset) Fold(d *digest.Digest) {
	d.Int(s.Count())
	s.ForEach(func(v int) { d.Int(v) })
}

// MemBytes reports the heap footprint of the set's spill structures
// (the inline word is counted by the embedding struct).
func (s *Copyset) MemBytes() int64 {
	b := int64(len(s.pages)) * 8
	for _, pg := range s.pages {
		if pg != nil {
			b += pageWords * 8
		}
	}
	return b
}
