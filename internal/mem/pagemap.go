package mem

import (
	"iter"
	"math/bits"
)

// PageSize is the granularity of a PageMap: 4 KB, the largest block size
// the paper sweeps, whatever the coherence block size of the run.
const (
	pageShift = 12
	PageSize  = 1 << pageShift
)

// PageMap marks pages of a byte range, one byte per page, non-zero once
// marked. A Space keeps one over its data and core.Heap one over the master
// image; both stand for the same claim — an unmarked page is all-zero — so
// every whole-image pass (seeding, write-back, release, snapshot) walks
// marked pages only and a run pays for the pages it touched.
type PageMap []byte

// NumPages returns the number of pages covering size bytes.
func NumPages(size int) int { return (size + PageSize - 1) >> pageShift }

// Mark marks every page overlapping [addr, addr+n).
func (m PageMap) Mark(addr, n int) {
	if n <= 0 {
		return
	}
	for p := addr >> pageShift; p <= (addr+n-1)>>pageShift; p++ {
		m[p] = 1
	}
}

// Merge marks in m every page marked in o.
func (m PageMap) Merge(o PageMap) {
	for p, v := range o {
		m[p] |= v
	}
}

// Runs yields each maximal run of marked pages as the byte range [lo, hi),
// ascending; size is the length of the mapped range, whose last page may be
// partial.
func (m PageMap) Runs(size int) iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		for p := 0; p < len(m); p++ {
			if m[p] == 0 {
				continue
			}
			first := p
			for p < len(m) && m[p] != 0 {
				p++
			}
			if !yield(first<<pageShift, min(p<<pageShift, size)) {
				return
			}
		}
	}
}

// Blocks yields, ascending and once each, the index of every blockSize-byte
// block that overlaps a marked page.
func (m PageMap) Blocks(blockSize, size int) iter.Seq[int] {
	shift := uint(bits.TrailingZeros(uint(blockSize)))
	return func(yield func(b int) bool) {
		next := 0
		for lo, hi := range m.Runs(size) {
			for b := max(next, lo>>shift); b <= (hi-1)>>shift; b++ {
				if !yield(b) {
					return
				}
			}
			next = (hi-1)>>shift + 1
		}
	}
}
