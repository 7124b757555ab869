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

// Clock is one node's vector clock, held as a difference against the last
// barrier's merged clock instead of as n entries of its own. Three
// invariants make that enough:
//
//   - base is immutable and dominated by the clock. It is the VC the last
//     barrier release carried (zero before the first), shared by every node
//     that has handled that release; nobody writes it again.
//   - own, the node's own entry, is authoritative and lives outside the
//     vectors, so closing an interval never copies: base[node] and
//     priv[node] may lag it and are never read.
//   - priv is non-nil exactly when the node has learned a foreign entry
//     beyond base — through a lock grant — since the last Rebase. It is a
//     dense copy in a buffer the clock keeps, so a node pays for it once.
//
// A run that synchronizes with barriers only never leaves the shared form.
type Clock struct {
	node int32
	own  int32
	base VC `digest:"shared"`
	priv VC // view into buf while active
	buf  VC `digest:"-"` // priv's storage, not state
}

// NewClocks returns one clock per node, all zero, over one shared base.
func NewClocks(n int) []Clock {
	base := NewVC(n)
	cs := make([]Clock, n)
	for i := range cs {
		cs[i] = Clock{node: int32(i), base: base}
	}
	return cs
}

// view returns the vector holding every entry but the node's own.
func (c *Clock) view() VC {
	if c.priv != nil {
		return c.priv
	}
	return c.base
}

// Get returns the clock's entry for node i.
func (c *Clock) Get(i int) int32 {
	if int32(i) == c.node {
		return c.own
	}
	return c.view()[i]
}

// Seen reports whether the clock covers iv, an interval of the shared log.
func (c *Clock) Seen(iv *Interval) bool {
	if iv.Node == c.node {
		return iv.Index <= c.own
	}
	return iv.Index <= c.view()[iv.Node]
}

// Tick records that the node closed its interval idx.
func (c *Clock) Tick(idx int32) { c.own = idx }

// Private reports whether the clock holds a dense copy of its own.
func (c *Clock) Private() bool { return c.priv != nil }

// Dense returns the clock as a fresh VC.
func (c *Clock) Dense() VC { return c.DenseInto(nil) }

// DenseInto writes the clock into buf's storage, growing it only when it
// is too short, and returns the result.
func (c *Clock) DenseInto(buf VC) VC {
	v := append(buf[:0], c.view()...)
	v[c.node] = c.own
	return v
}

// Merge raises the clock to the element-wise maximum of itself and other.
// The private copy is made at the first entry of other that exceeds it.
func (c *Clock) Merge(other VC) {
	if o := other[c.node]; o > c.own {
		c.own = o
	}
	if c.priv == nil {
		i := 0
		for ; i < len(other); i++ {
			if other[i] > c.base[i] && int32(i) != c.node {
				break
			}
		}
		if i == len(other) {
			return
		}
		c.setPriv(c.base)
	}
	c.priv.Merge(other)
}

// setPriv makes the private vector a copy of v, in the clock's buffer.
func (c *Clock) setPriv(v VC) {
	c.priv = append(c.buf[:0], v...)
	c.buf = c.priv
}

// Rebase replaces the clock by merged, which must dominate it: the clock a
// barrier release carries. merged becomes the shared base — the caller
// gives up writing it — and the private copy, if any, is dropped.
func (c *Clock) Rebase(merged VC) {
	c.base, c.priv, c.own = merged, nil, merged[c.node]
}

// MergeClocks returns the base the clocks share — callers must not modify
// it — and the element-wise maximum of every clock as a fresh VC, at a cost
// of O(1) per shared-form clock and O(n) per private one. It must be
// called with all clocks on one base — true whenever every node has
// handled the previous barrier release, as at a full barrier.
func MergeClocks(cs []Clock) (base, merged VC) {
	base = cs[0].base
	merged = base.Clone()
	for i := range cs {
		c := &cs[i]
		if c.priv != nil {
			merged.Merge(c.priv)
		}
		if c.own > merged[i] {
			merged[i] = c.own
		}
	}
	return base, merged
}
