package mem

import "testing"

var keptLists = NewKept[[]int]()

// TestKeptHandsBackWhole: a Kept value comes back as it was Put, contents and
// all; an empty pool hands out the zero value and counts a miss; IsolatePools
// reaches the pool, drops at restore what came back meanwhile, and never
// shows it to its check, which wants zero bytes.
func TestKeptHandsBackWhole(t *testing.T) {
	checked := 0
	restore := IsolatePools(func([]byte) { checked++ })
	c0 := keptLists.Counts()
	if v := keptLists.Get(); v != nil {
		t.Fatalf("an empty pool handed out %v", v)
	}
	keptLists.Put([]int{1, 2, 3})
	keptLists.Put([]int{4})
	if v := keptLists.Get(); len(v) != 1 || v[0] != 4 {
		t.Fatalf("Get = %v, want the last value Put, [4]", v)
	}
	if v := keptLists.Get(); len(v) != 3 || v[2] != 3 {
		t.Fatalf("Get = %v, want [1 2 3]", v)
	}
	c := keptLists.Counts()
	if c.Hits-c0.Hits != 2 || c.Misses-c0.Misses != 1 || checked != 0 {
		t.Fatalf("%d hits, %d misses, %d values checked; want 2, 1 and 0", c.Hits-c0.Hits, c.Misses-c0.Misses, checked)
	}
	keptLists.Put([]int{5})
	restore()
	restore = IsolatePools(nil)
	defer restore()
	if v := keptLists.Get(); v != nil {
		t.Fatalf("a value Put under one IsolatePools came back under the next: %v", v)
	}
}

var mixedLengths = NewPool[byte]()

// TestLongDrawFindsBuriedBuffer: a draw too long for the buffers on top of a
// pool drops them on its way down to one that fits, so a pool holds no more
// long buffers than were drawn at once. Here a hundred short draws take the
// one long buffer along and give it back first, burying it; the long draw
// after them must find it, not drop one short buffer and allocate a second
// long one, which over the rounds would turn every short buffer long.
func TestLongDrawFindsBuriedBuffer(t *testing.T) {
	defer IsolatePools(nil)()
	held := make([][]byte, 100)
	for round := range 5 {
		for i := range held {
			held[i] = mixedLengths.Get(8)
		}
		for _, b := range held {
			mixedLengths.Put(b)
		}
		c0 := mixedLengths.Counts()
		mixedLengths.Put(mixedLengths.Get(1024))
		c := mixedLengths.Counts()
		if round > 0 && c.Misses != c0.Misses {
			t.Fatalf("round %d: the long draw allocated with a long buffer in the pool", round)
		}
		if c.Idle > int64(len(held)) {
			t.Fatalf("round %d: %d buffers wait, more than the %d ever drawn at once", round, c.Idle, len(held))
		}
	}
}

// TestPoolsDropWhatNoRunDrew: every run's master image ages the pools, and a
// value no run has drawn for keepRuns runs is dropped, while the image pool,
// which each run draws from and gives back to, keeps its one buffer.
func TestPoolsDropWhatNoRunDrew(t *testing.T) {
	defer IsolatePools(nil)()
	run := func() {
		s := NewImage(PageSize)
		s.Release()
	}
	keptLists.Put([]int{1})
	for range keepRuns {
		run()
	}
	if c := keptLists.Counts(); c.Idle != 1 {
		t.Fatalf("after %d runs %d values wait; want the one Put", keepRuns, c.Idle)
	}
	run()
	if c := keptLists.Counts(); c.Idle != 0 {
		t.Fatalf("a value no run drew for %d runs is still listed", keepRuns+1)
	}
	if _, _, images := SlabStats(); images.Idle != 1 || images.IdleBytes != PageSize+1 {
		t.Fatalf("the image pool holds %d buffers of %d bytes; want the one every run drew, %d bytes", images.Idle, images.IdleBytes, PageSize+1)
	}
}
