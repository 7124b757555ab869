package proto

import (
	"fmt"
	"testing"
	"testing/quick"

	"dsmsim/internal/digest"
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

// TestLogCloneNeverSharesAChunk: Publish copies notices into a chunk it
// cuts many intervals from, and a checkpoint's digest.Clone of the log
// shares the intervals published so far. Publishing into the clone and
// then into its source, each from one reused buffer, must leave every
// interval either log holds as it was published, and each log's digest
// equal to that of a log that published the same history into fresh
// storage.
func TestLogCloneNeverSharesAChunk(t *testing.T) {
	type pub struct {
		node   int
		blocks []int32
	}
	var buf []WriteNotice // the caller's scratch, reused by every Publish
	publish := func(l *Log, ps ...pub) {
		for _, p := range ps {
			buf = buf[:0]
			for _, b := range p.blocks {
				buf = append(buf, WriteNotice{Block: b, Seq: b + 1})
			}
			l.Publish(p.node, buf)
		}
	}
	// fresh replays a history into a log with nothing recycled: the oracle.
	fresh := func(ps ...pub) *Log {
		l := NewLog(2)
		for _, p := range ps {
			var ns []WriteNotice
			for _, b := range p.blocks {
				ns = append(ns, WriteNotice{Block: b, Seq: b + 1})
			}
			l.Publish(p.node, ns)
		}
		return l
	}
	same := func(what string, got, want *Log) {
		t.Helper()
		if fmt.Sprint(got.byNode) != fmt.Sprint(want.byNode) {
			t.Fatalf("%s holds %v, want %v", what, got.byNode, want.byNode)
		}
		if digest.Of(got) != digest.Of(want) {
			t.Fatalf("%s: digest differs from the oracle's", what)
		}
	}
	prefix := []pub{{0, []int32{1}}, {1, []int32{2, 3}}, {0, nil}, {1, []int32{4}}}
	src := NewLog(2)
	publish(src, prefix...)
	clone := digest.Clone(src)
	same("clone", clone, fresh(prefix...))

	forClone := []pub{{0, []int32{9}}, {1, []int32{10, 11}}}
	forSrc := []pub{{0, []int32{7, 8}}, {1, []int32{12}}, {0, []int32{13, 14, 15}}}
	publish(clone, forClone...)
	publish(src, forSrc...)
	same("clone after both published", clone, fresh(append(prefix[:len(prefix):len(prefix)], forClone...)...))
	same("source after both published", src, fresh(append(prefix[:len(prefix):len(prefix)], forSrc...)...))

	// Past a chunk's end: the source starts a new chunk, the clone's
	// intervals stay where they were.
	big := pub{1, make([]int32, 2*noticeChunk)}
	publish(src, big)
	publish(clone, big)
	same("clone after a new chunk", clone, fresh(append(append(prefix[:len(prefix):len(prefix)], forClone...), big)...))
	same("source after a new chunk", src, fresh(append(append(prefix[:len(prefix):len(prefix)], forSrc...), big)...))
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
}
