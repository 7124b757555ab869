package proto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLogBetweenPartitions: for any split point m, Between(0,m) followed by
// Between(m,latest) covers exactly the full history, in order, without
// overlap.
func TestLogBetweenPartitions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(1)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var ns []WriteNotice
			for k := rng.Intn(4); k > 0; k-- {
				ns = append(ns, WriteNotice{Block: int32(rng.Intn(100))})
			}
			l.Publish(0, ns)
		}
		m := int32(rng.Intn(n + 1))
		a := l.Between(0, 0, m)
		b := l.Between(0, m, int32(n))
		if len(a)+len(b) != n {
			return false
		}
		idx := int32(1)
		for _, iv := range append(append([]Interval{}, a...), b...) {
			if iv.Index != idx {
				return false
			}
			idx++
		}
		// Each over a clock range visits exactly Between's intervals.
		var each []Interval
		l.Each(VC{m}, VC{int32(n)}, func(ivs []Interval) { each = append(each, ivs...) })
		if len(each) != len(b) {
			return false
		}
		for i := range b {
			if each[i].Index != b[i].Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHomesClaimIdempotent: for any claim sequence, the first claimer wins
// and every subsequent Claim returns the same home.
func TestHomesClaimIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(14)
		h := NewHomes(nodes, 32)
		h.BeginFirstTouch()
		first := make([]int, 32)
		for i := range first {
			first[i] = -1
		}
		for op := 0; op < 200; op++ {
			b := rng.Intn(32)
			n := rng.Intn(nodes)
			home, migrated := h.Claim(b, n)
			if first[b] == -1 {
				if !migrated || home != n {
					return false
				}
				first[b] = n
			} else {
				if migrated || home != first[b] {
					return false
				}
			}
			if h.Home(b) != first[b] || !h.Claimed(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVCMergeIdempotentCommutativeAssociative: the three lattice laws the
// barrier's clock merging relies on.
func TestVCMergeIdempotentCommutativeAssociative(t *testing.T) {
	f := func(xs, ys, zs [5]uint8) bool {
		mk := func(v [5]uint8) VC {
			out := NewVC(5)
			for i, x := range v {
				out[i] = int32(x)
			}
			return out
		}
		a, b, c := mk(xs), mk(ys), mk(zs)
		// Idempotent: a ⊔ a = a
		aa := a.Clone()
		aa.Merge(a)
		if !aa.Dominates(a) || !a.Dominates(aa) {
			return false
		}
		// Commutative: a ⊔ b = b ⊔ a
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Dominates(ba) || !ba.Dominates(ab) {
			return false
		}
		// Associative: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c)
		l := ab.Clone()
		l.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		r := a.Clone()
		r.Merge(bc)
		return l.Dominates(r) && r.Dominates(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
