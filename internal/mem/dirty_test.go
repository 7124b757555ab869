package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsmsim/internal/digest"
)

// blockSizes covers both sides of the page size: blocks that share a page
// and blocks that span several.
var blockSizes = []int{64, 256, 1024, 4096, 8192}

// assertFresh fails unless s is indistinguishable from a newly allocated
// space — over the whole capacity of its slabs, not just the part the
// current geometry exposes, since the next NewSpace may lay it out larger.
func assertFresh(t *testing.T, s *Space, when string) {
	t.Helper()
	whole := s.slab.buf[:cap(s.slab.buf)]
	if i := bytes.IndexFunc(whole, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("%s: slab byte %d of %d is non-zero (size %d, block %d)", when, i, len(whole), s.Size(), s.blockSize)
	}
	if i := slices.IndexFunc(s.tags[:cap(s.tags)], func(a Access) bool { return a != NoAccess }); i >= 0 {
		t.Fatalf("%s: tag %d of %d is %v (size %d, block %d)", when, i, cap(s.tags), s.tags[:cap(s.tags)][i], s.Size(), s.blockSize)
	}
	if s.ver != 0 || s.OnTag != nil {
		t.Fatalf("%s: ver %d, OnTag set %v", when, s.ver, s.OnTag != nil)
	}
}

// scribble dirties the space's last page through each route to its bytes:
// a tag transition followed by an application write, and a BlockData
// hand-out written through.
func scribble(s *Space) {
	last := s.NumBlocks() - 1
	s.SetTag(last, ReadWrite)
	s.Bytes(s.Size()-1, 1)[0] = 0xEE
	s.BlockData(last)[0] = 0xDD
	s.SetTag(0, ReadOnly)
	s.BlockData(s.NumBlocks() / 2)[1] = 0xCC
}

// TestPoolRoundTripAcrossGeometries: a slab dirtied at one size and block
// size comes back clean at any other. The sequence big → small → big is the
// one a map indexed by the current geometry would get wrong: the big
// space's last page lies beyond everything the small one can see.
func TestPoolRoundTripAcrossGeometries(t *testing.T) {
	const big, small = 40 * 8192, 3 * 8192
	for _, bs := range blockSizes {
		for _, other := range blockSizes {
			s := NewSpace(big, bs)
			assertFresh(t, s, "big, first")
			scribble(s)
			s.Release()

			s = NewSpace(small, other)
			assertFresh(t, s, "small after big")
			scribble(s)
			s.Release()

			s = NewSpace(big, bs)
			assertFresh(t, s, "big after small")
			for b := 0; b < s.NumBlocks(); b++ {
				if s.Tag(b) != NoAccess {
					t.Fatalf("block %d/%d: tag %v after recycle", bs, other, s.Tag(b))
				}
			}
			scribble(s)
			s.Release()
		}
	}
}

// TestMarkCoversWholeBlock: a block wider than a page marks every page it
// spans, a narrower one exactly its own, through SetTag and BlockData alike.
func TestMarkCoversWholeBlock(t *testing.T) {
	for _, bs := range blockSizes {
		for _, route := range []string{"SetTag", "BlockData"} {
			s := NewSpace(8*8192, bs)
			b := s.NumBlocks() - 3
			if route == "SetTag" {
				s.SetTag(b, ReadOnly)
			} else {
				s.BlockData(b)
			}
			var want PageMap = make([]byte, NumPages(s.Size()))
			want.Mark(b*bs, bs)
			if !bytes.Equal(s.Dirty(), want) {
				t.Errorf("%s, block %d B: dirty %v, want %v", route, bs, s.Dirty(), want)
			}
			s.Release()
		}
	}
}

func TestPageMapRunsAndBlocks(t *testing.T) {
	// Pages 1, 2 and 4 of a 4.5-page range.
	const size = 4*PageSize + PageSize/2
	m := PageMap(make([]byte, NumPages(size)))
	m.Mark(PageSize+100, PageSize) // pages 1-2
	m.Mark(size-1, 1)              // page 4, partial
	m.Mark(0, 0)                   // nothing
	var runs [][2]int
	for lo, hi := range m.Runs(size) {
		runs = append(runs, [2]int{lo, hi})
	}
	if want := [][2]int{{PageSize, 3 * PageSize}, {4 * PageSize, size}}; !slices.Equal(runs, want) {
		t.Fatalf("Runs = %v, want %v", runs, want)
	}
	for _, c := range []struct {
		bs   int
		want []int
	}{
		{2048, []int{2, 3, 4, 5, 8}},
		{4096, []int{1, 2, 4}},
		{8192, []int{0, 1, 2}}, // pages 1|2 fall in blocks 0|1: each once
	} {
		if got := slices.Collect(m.Blocks(c.bs, size)); !slices.Equal(got, c.want) {
			t.Errorf("Blocks(%d) = %v, want %v", c.bs, got, c.want)
		}
	}
}

// fullCopy is the snapshot State used to take — every byte and every tag —
// kept as the oracle for the packed one.
type fullCopy struct {
	data []byte
	tags []Access
	ver  uint32
}

func copyOf(s *Space) fullCopy {
	return fullCopy{append([]byte(nil), s.data...), append([]Access(nil), s.tags...), s.ver}
}

// digest folds every byte of the copy one at a time, zeros included, so it
// checks Fold's use of Zeros rather than sharing it.
func (f fullCopy) digest() uint64 {
	d := digest.New()
	d.Bytes(f.data)
	for _, t := range f.tags {
		d.Int(int(t))
	}
	d.U64(uint64(f.ver))
	return d.Sum()
}

func (f fullCopy) diff(s *Space) error {
	if !bytes.Equal(s.data, f.data) {
		return fmt.Errorf("data differs from the full copy")
	}
	if !slices.Equal(s.tags, f.tags) {
		return fmt.Errorf("tags differ from the full copy")
	}
	if s.ver != f.ver {
		return fmt.Errorf("ver %d, want %d", s.ver, f.ver)
	}
	// The invariant must survive the restore as well: what the map calls
	// clean is zero and NoAccess.
	for p, d := range s.dirty {
		if d != 0 {
			continue
		}
		lo, hi := p*PageSize, min((p+1)*PageSize, len(s.data))
		if bytes.IndexFunc(s.data[lo:hi], func(r rune) bool { return r != 0 }) >= 0 {
			return fmt.Errorf("clean page %d holds data", p)
		}
		for b := lo >> s.blockShift; b <= (hi-1)>>s.blockShift; b++ {
			if s.tags[b] != NoAccess {
				return fmt.Errorf("clean page %d: block %d is %v", p, b, s.tags[b])
			}
		}
	}
	return nil
}

// mutate applies n random protocol-shaped operations: tag transitions,
// application writes where the tag allows them, block installs, and
// hand-outs that write nothing (a dirty page that stays zero).
func mutate(rng *rand.Rand, s *Space, n int) {
	for ; n > 0; n-- {
		b := rng.Intn(s.NumBlocks())
		switch rng.Intn(4) {
		case 0:
			s.SetTag(b, Access(rng.Intn(3)))
		case 1:
			if s.Tag(b).Allows(true) {
				off := rng.Intn(s.blockSize)
				rng.Read(s.Bytes(b<<s.blockShift+off, rng.Intn(s.blockSize-off)+1))
			}
		case 2:
			rng.Read(s.BlockData(b)[:1+rng.Intn(s.blockSize)])
		case 3:
			s.BlockData(b)
		}
	}
}

// TestStateRestoreMatchesFullCopy: over random histories, the packed
// snapshot restores — onto a fresh space and onto one that has since moved
// on — to exactly what a full copy of data and tags holds, stays intact
// while its source keeps changing, and digests like the full copy.
func TestStateRestoreMatchesFullCopy(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bs := blockSizes[rng.Intn(len(blockSizes))]
		size := bs * (1 + rng.Intn(3*PageSize*8/bs)) // sub-page blocks leave a partial last page
		s := NewSpace(size, bs)
		mutate(rng, s, rng.Intn(40))
		want := copyOf(s)
		st := s.State()

		if d := digest.Of(&st); d != want.digest() {
			t.Fatalf("seed %d (%d B / %d): digest %#x, full copy %#x", seed, size, bs, d, want.digest())
		}

		mutate(rng, s, 1+rng.Intn(40)) // the snapshot must not alias s
		fresh := NewSpace(size, bs)
		for name, dst := range map[string]*Space{"fresh": fresh, "moved-on": s} {
			dst.Restore(st)
			if err := want.diff(dst); err != nil {
				t.Fatalf("seed %d (%d B / %d), restore onto %s space: %v", seed, size, bs, name, err)
			}
			if again := dst.State(); !bytes.Equal(again.buf, st.buf) || !slices.Equal(again.tags, st.tags) {
				t.Fatalf("seed %d: State after Restore onto %s space differs from the snapshot", seed, name)
			}
		}
		fresh.Release()
		s.Release()
	}
}

// TestDigestIgnoresDirtyZeroPages: the digest is a function of contents,
// not of the map — handing out blocks that nobody writes makes pages dirty
// and the snapshot longer, and changes nothing else.
func TestDigestIgnoresDirtyZeroPages(t *testing.T) {
	for _, bs := range blockSizes {
		a, b := NewSpace(16*8192, bs), NewSpace(16*8192, bs)
		for _, s := range []*Space{a, b} {
			s.SetTag(1, ReadWrite)
			s.Bytes(1<<s.blockShift, 1)[0] = 7
		}
		b.BlockData(b.NumBlocks() - 1)
		b.BlockData(b.NumBlocks() / 2)
		sa, sb := a.State(), b.State()
		if len(sb.buf) <= len(sa.buf) {
			t.Fatalf("block %d: hand-outs marked nothing (%d vs %d snapshot bytes)", bs, len(sb.buf), len(sa.buf))
		}
		if da, db := digest.Of(&sa), digest.Of(&sb); da != db {
			t.Errorf("block %d: digest %#x with dirty zero pages, %#x without", bs, db, da)
		}
		a.Release()
		b.Release()
	}
}

func TestRestoreMismatchPanics(t *testing.T) {
	st := NewSpace(8192, 64).State()
	for _, s := range []*Space{NewSpace(4096, 64), NewSpace(8192, 256)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Restore onto %d B / %d did not panic", s.Size(), s.BlockSize())
				}
			}()
			s.Restore(st)
		}()
	}
}
