package proto

import (
	"testing"
	"testing/quick"
)

func TestVCMergeDominates(t *testing.T) {
	a := VC{1, 5, 2}
	b := VC{3, 1, 2}
	a.Merge(b)
	want := VC{3, 5, 2}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("merge = %v, want %v", a, want)
		}
	}
	if !a.Dominates(b) || !a.Dominates(VC{3, 5, 2}) {
		t.Fatal("merged clock must dominate both inputs")
	}
	if (VC{1, 1, 1}).Dominates(a) {
		t.Fatal("small clock must not dominate")
	}
}

func TestVCCloneIndependent(t *testing.T) {
	a := VC{1, 2}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases source")
	}
}

// Property: merge is the least upper bound — it dominates both inputs and
// is dominated by any other clock dominating both.
func TestVCMergeIsLUB(t *testing.T) {
	f := func(xs, ys [4]uint8) bool {
		a, b := NewVC(4), NewVC(4)
		for i := 0; i < 4; i++ {
			a[i], b[i] = int32(xs[i]), int32(ys[i])
		}
		m := a.Clone()
		m.Merge(b)
		if !m.Dominates(a) || !m.Dominates(b) {
			return false
		}
		// Any upper bound u of a and b dominates m.
		u := NewVC(4)
		for i := range u {
			u[i] = a[i]
			if b[i] > u[i] {
				u[i] = b[i]
			}
		}
		return u.Dominates(m) && m.Dominates(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogPublishBetween(t *testing.T) {
	l := NewLog(2)
	if l.Latest(0) != 0 {
		t.Fatal("fresh log must be empty")
	}
	i1 := l.Publish(0, []WriteNotice{{Block: 10}})
	i2 := l.Publish(0, []WriteNotice{{Block: 11}, {Block: 12}})
	if i1 != 1 || i2 != 2 || l.Latest(0) != 2 {
		t.Fatalf("indices = %d,%d latest=%d", i1, i2, l.Latest(0))
	}
	ivs := l.Between(0, 0, 2)
	if len(ivs) != 2 || ivs[0].Index != 1 || ivs[1].Index != 2 {
		t.Fatalf("Between(0,0,2) = %+v", ivs)
	}
	if got := l.Between(0, 1, 2); len(got) != 1 || got[0].Index != 2 {
		t.Fatalf("Between(0,1,2) = %+v", got)
	}
	if l.Between(0, 2, 2) != nil {
		t.Fatal("empty range must be nil")
	}
	if l.Between(0, 0, 99) == nil || len(l.Between(0, 0, 99)) != 2 {
		t.Fatal("upTo beyond latest must clamp")
	}
	l.Publish(1, nil)
	var got []Interval
	l.Each(VC{1, 0}, VC{2, 1}, func(ivs []Interval) { got = append(got, ivs...) })
	if len(got) != 2 || got[0].Node != 0 || got[0].Index != 2 || got[1].Node != 1 || got[1].Index != 1 {
		t.Fatalf("Each((1,0),(2,1)) = %+v", got)
	}
	l.Each(VC{2, 1}, VC{2, 1}, func(ivs []Interval) { t.Fatalf("Each over an empty range called fn with %+v", ivs) })
}

func TestHomesStaticAssignment(t *testing.T) {
	h := NewHomes(4, 10)
	for b := 0; b < 10; b++ {
		if h.Home(b) != b%4 || h.Static(b) != b%4 {
			t.Fatalf("block %d homed at %d", b, h.Home(b))
		}
		if !h.Claimed(b) {
			t.Fatal("static blocks must count as claimed")
		}
	}
}

func TestHomesFirstTouch(t *testing.T) {
	h := NewHomes(4, 8)
	h.BeginFirstTouch()
	if h.Claimed(3) {
		t.Fatal("blocks must be unclaimed after BeginFirstTouch")
	}
	home, migrated := h.Claim(3, 2)
	if home != 2 || !migrated {
		t.Fatalf("Claim = %d,%v", home, migrated)
	}
	home, migrated = h.Claim(3, 1)
	if home != 2 || migrated {
		t.Fatalf("second Claim = %d,%v, want existing home", home, migrated)
	}
	if h.ClaimToStatic(5) != 5%4 {
		t.Fatal("ClaimToStatic wrong")
	}
	if h.ClaimToStatic(3) != 2 {
		t.Fatal("ClaimToStatic must not steal a claimed block")
	}
}
