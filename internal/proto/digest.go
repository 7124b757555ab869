package proto

// Digest is a small deterministic FNV-1a accumulator the checkpoint layer
// uses to fingerprint simulator state. It exists so the fork(prefix) ≡
// fresh-run invariant can be asserted cheaply at every barrier epoch:
// two states digest equal iff the same values were fed in the same order,
// so every producer must walk its state deterministically (sorted map
// keys, ascending copyset order — which ForEach already guarantees).
type Digest struct{ h uint64 }

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

func (d *Digest) mix(b byte) { d.h = (d.h ^ uint64(b)) * fnvPrime }

// U64 folds v into the digest.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 8; i++ {
		d.mix(byte(v))
		v >>= 8
	}
}

// I64 folds v into the digest.
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Int folds v into the digest.
func (d *Digest) Int(v int) { d.U64(uint64(int64(v))) }

// Bool folds v into the digest.
func (d *Digest) Bool(v bool) {
	if v {
		d.mix(1)
	} else {
		d.mix(0)
	}
}

// Bytes folds a byte slice into the digest.
func (d *Digest) Bytes(p []byte) {
	for _, b := range p {
		d.mix(b)
	}
}

// Zeros folds n zero bytes into the digest in O(log n): mixing a zero byte
// is one multiplication by the FNV prime, so a run of them is a power of it.
// This is what lets a checkpoint digest a space's untouched pages without
// holding or walking them (mem.SpaceState.AddToDigest).
func (d *Digest) Zeros(n int) {
	for p := fnvPrime; n > 0; n >>= 1 {
		if n&1 != 0 {
			d.h *= p
		}
		p *= p
	}
}

// Sum returns the accumulated fingerprint.
func (d *Digest) Sum() uint64 { return d.h }

// Digestable is implemented by protocol state snapshots (the values
// Checkpointer.CaptureState returns) that can fold themselves into a
// digest. Core's state-digest helper uses it; a snapshot that does not
// implement it simply contributes nothing.
type Digestable interface {
	AddToDigest(d *Digest)
}

// AddToDigest folds the set's members (ascending) into d.
func (s *Copyset) AddToDigest(d *Digest) {
	d.Int(s.Count())
	s.ForEach(func(v int) { d.Int(v) })
}

// AddToDigest folds the clock into d.
func (v VC) AddToDigest(d *Digest) {
	for _, c := range v {
		d.I64(int64(c))
	}
}

// AddToDigest folds the snapshot into d: the shared base once, then each
// node's own entry and, where it has one, its private vector.
func (st *ClockState) AddToDigest(d *Digest) {
	st.base.AddToDigest(d)
	for i, own := range st.own {
		d.I64(int64(own))
		d.Bool(st.priv[i] != nil)
		st.priv[i].AddToDigest(d)
	}
}

// AddToDigest folds the home map — claims, migrations, learned sets —
// into d.
func (h *Homes) AddToDigest(d *Digest) {
	d.Bool(h.firstTouch)
	h.claimed.AddToDigest(d)
	for b, m := range h.moved.All() {
		if m.home >= 0 {
			d.Int(b)
			d.I64(int64(m.home))
			m.known.AddToDigest(d)
		}
	}
}

// AddToDigest folds every published interval into d.
func (l *Log) AddToDigest(d *Digest) {
	for node, ivs := range l.byNode {
		d.Int(node)
		d.Int(len(ivs))
		for _, iv := range ivs {
			d.I64(int64(iv.Index))
			for _, wn := range iv.Notices {
				d.I64(int64(wn.Block))
				d.I64(int64(wn.Version))
				d.I64(int64(wn.Seq))
			}
		}
	}
}
