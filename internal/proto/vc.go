// Package proto holds the machinery shared by every registered coherence
// protocol: vector clocks and intervals (the LRC timestamp scheme of §2.2
// and §2.3), write notices, the block-home map with first-touch migration
// (§2), and the Protocol interface the core runtime drives.
package proto

// VC is a vector clock over node intervals: VC[i] is the highest interval
// of node i whose write notices the owner of this clock has seen.
type VC []int32

// NewVC returns a zeroed vector clock for n nodes. Interval numbering
// starts at 1, so 0 means "nothing seen yet".
func NewVC(n int) VC { return make(VC, n) }

// NewVCs returns n zeroed n-entry vector clocks, one per node, cut from a
// single allocation.
func NewVCs(n int) []VC {
	slab := make(VC, n*n)
	vcs := make([]VC, n)
	for i := range vcs {
		vcs[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return vcs
}

// Clone returns an independent copy.
func (v VC) Clone() VC { return append(VC(nil), v...) }

// Merge sets v to the element-wise maximum of v and other.
func (v VC) Merge(other VC) {
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
}

// Dominates reports whether v[i] >= other[i] for all i.
func (v VC) Dominates(other VC) bool {
	for i, o := range other {
		if v[i] < o {
			return false
		}
	}
	return true
}
