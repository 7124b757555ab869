package proto

import (
	"math/rand"
	"slices"
	"testing"

	"dsmsim/internal/digest"
	"dsmsim/internal/mem"
)

// TestCopysetBasics drives Add/Remove/Contains/Count against a map
// reference across the inline/spill boundary.
func TestCopysetBasics(t *testing.T) {
	var s Copyset
	ref := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := rng.Intn(9000) // spans inline (<64), page 0, and page 2
		if rng.Intn(3) == 0 {
			s.Remove(v)
			delete(ref, v)
		} else {
			s.Add(v)
			ref[v] = true
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(ref))
	}
	for v := 0; v < 9000; v++ {
		if s.Contains(v) != ref[v] {
			t.Fatalf("Contains(%d) = %v, want %v", v, s.Contains(v), ref[v])
		}
	}
}

// TestCopysetBoundary pins the 63/64/65 inline-to-spill transition.
func TestCopysetBoundary(t *testing.T) {
	var s Copyset
	for _, v := range []int{0, 63} {
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("inline member %d lost", v)
		}
	}
	if s.pages != nil {
		t.Fatal("members < 64 must not allocate spill pages")
	}
	s.Add(64)
	s.Add(65)
	if s.pages == nil {
		t.Fatal("member 64 must spill")
	}
	for _, v := range []int{0, 63, 64, 65} {
		if !s.Contains(v) {
			t.Fatalf("member %d lost across the spill boundary", v)
		}
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	s.Remove(64)
	if s.Contains(64) || !s.Contains(65) || s.Count() != 3 {
		t.Fatal("Remove(64) misbehaved")
	}
	// Removing spilled members never present, beyond any page, is a no-op.
	s.Remove(1 << 20)
	if s.Count() != 3 {
		t.Fatal("Remove of an absent far member changed the set")
	}
	if s.Contains(1 << 20) {
		t.Fatal("Contains of an absent far member")
	}
}

// TestCopysetIterationOrder: ForEach visits members in ascending order,
// deterministically, across inline and multiple spill pages.
func TestCopysetIterationOrder(t *testing.T) {
	var s Copyset
	want := []int{0, 3, 63, 64, 100, pageBits - 1, pageBits, 3 * pageBits, 3*pageBits + 7}
	for _, v := range []int{3 * pageBits, 100, 0, 3*pageBits + 7, pageBits, 63, 3, pageBits - 1, 64} {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
}

// TestCopysetClearReuse: Clear empties the set but keeps spill pages, so
// the refill is alloc-free (the steady-state contract delayed-inval
// buffers and per-interval write sets rely on).
func TestCopysetClearReuse(t *testing.T) {
	var s Copyset
	for _, v := range []int{1, 70, 5000} {
		s.Add(v)
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("Clear left members behind")
	}
	if s.pages == nil || s.pages[0] == nil || s.pages[1] == nil {
		t.Fatal("Clear must retain spill pages for reuse")
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(1)
		s.Add(70)
		s.Add(5000)
		s.ForEach(func(int) {})
		s.Clear()
	}); avg != 0 {
		t.Fatalf("warm add/iterate/clear cycle allocated %.1f per run, want 0", avg)
	}
}

// TestCopysetMemBytes: the reported footprint tracks allocated pages.
func TestCopysetMemBytes(t *testing.T) {
	var s Copyset
	s.Add(10)
	if s.MemBytes() != 0 {
		t.Fatalf("inline-only set reports %d spill bytes", s.MemBytes())
	}
	s.Add(2 * pageBits)
	want := int64(3*8) + pageWords*8 // 3 page-table slots, one live page
	if s.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d", s.MemBytes(), want)
	}
}

var _ = PoolShards[int16]()

// TestTableSparsity: entries materialise per shard with the init default
// applied, Peek never allocates, and Allocated tracks touched shards.
func TestTableSparsity(t *testing.T) {
	tb := NewTable(10*shardSize, func(v *int16) { *v = -1 })
	if tb.Allocated() != 0 {
		t.Fatal("fresh table has allocated shards")
	}
	if tb.Peek(5) != nil {
		t.Fatal("Peek materialised a shard")
	}
	if got := *tb.At(5); got != -1 {
		t.Fatalf("default entry = %d, want -1", got)
	}
	*tb.At(5) = 7
	if tb.Allocated() != 1 {
		t.Fatalf("Allocated = %d, want 1", tb.Allocated())
	}
	if *tb.Peek(5) != 7 || *tb.Peek(6) != -1 {
		t.Fatal("shard contents wrong")
	}
	if tb.Peek(9*shardSize) != nil {
		t.Fatal("untouched shard materialised")
	}
	if got := tb.MemBytes(2); got != int64(10*8)+int64(shardSize)*2 {
		t.Fatalf("MemBytes = %d", got)
	}
}

// TestTableShardsComeBack: a digest.Copy of a table fills the copy's shards
// from the pool and shares no entry with the original, spill pages
// included; release gives every shard back zeroed and leaves the table
// empty; a copy into a fresh table then draws exactly those shards, and a
// shard drawn by At starts from the table's default again.
func TestTableShardsComeBack(t *testing.T) {
	dirty := 0
	defer mem.IsolatePools(func(whole []byte) {
		if slices.ContainsFunc(whole, func(b byte) bool { return b != 0 }) {
			dirty++
		}
	})()
	drawn := func(since mem.PoolCounts) mem.PoolCounts {
		c := ShardStats()
		return mem.PoolCounts{Hits: c.Hits - since.Hits, Misses: c.Misses - since.Misses}
	}
	init := func(m *movedHome) { m.home = -1 }
	tb := NewTable(4*shardSize, init)
	tb.At(3).home = 2
	tb.At(3).known.Add(100) // a spill page
	tb.At(2*shardSize + 1).home = 1
	var cp Table[movedHome]
	c0 := ShardStats()
	digest.Copy(&cp, &tb)
	if got := drawn(c0); got != (mem.PoolCounts{Misses: 2}) {
		t.Fatalf("the copy drew (hits, misses) %v from an empty pool; want its two shards", got)
	}
	if digest.Of(&cp) != digest.Of(&tb) {
		t.Fatal("the copy digests unlike the original")
	}
	cp.At(3).known.Add(200)
	if tb.At(3).known.Contains(200) {
		t.Fatal("the copy shares a spill page with the original")
	}
	want := digest.Of(&cp)
	cp.release()
	if cp.Allocated() != 0 || dirty != 0 {
		t.Fatalf("after release: %d shards left, %d pooled buffers not zero", cp.Allocated(), dirty)
	}
	fresh := NewTable(4*shardSize, init)
	c1 := ShardStats()
	tb.At(3).known.Add(200)
	digest.Copy(&fresh, &tb)
	if got := drawn(c1); got != (mem.PoolCounts{Hits: 2}) {
		t.Fatalf("a copy into a fresh table drew (hits, misses) %v; want the two shards released", got)
	}
	if digest.Of(&fresh) != want {
		t.Fatal("a copy onto recycled shards digests unlike the same table copied onto fresh ones")
	}
	if e := fresh.At(shardSize); e.home != -1 || e.known.Count() != 0 {
		t.Fatalf("a shard drawn by At holds %+v; want the default", *e)
	}
}

// TestHomesOverlay: the sparse home map reproduces first-touch claiming,
// and CachedHome/Learn reproduce the per-node stale-home cache semantics
// (default to static until the node learns a migrated home).
func TestHomesOverlay(t *testing.T) {
	h := NewHomes(4, 64)
	if h.Home(6) != 2 || !h.Claimed(6) {
		t.Fatal("static assignment wrong before first touch")
	}
	h.BeginFirstTouch()
	if h.Claimed(6) || h.Home(6) != -1 {
		t.Fatal("BeginFirstTouch did not clear claims")
	}
	if home, migrated := h.Claim(6, 3); home != 3 || !migrated {
		t.Fatalf("Claim = (%d, %v)", home, migrated)
	}
	if home, migrated := h.Claim(6, 1); home != 3 || migrated {
		t.Fatalf("second Claim = (%d, %v)", home, migrated)
	}
	// Claim by the static home itself needs no overlay entry.
	if home, migrated := h.Claim(5, 1); home != 1 || !migrated {
		t.Fatalf("static self-claim = (%d, %v)", home, migrated)
	}
	if h.Home(5) != 1 {
		t.Fatal("self-claimed home wrong")
	}
	// Node 0 has not learned block 6's migrated home: it still believes
	// the static home and its request would be forwarded.
	if h.CachedHome(0, 6) != 2 {
		t.Fatalf("unlearned CachedHome = %d, want static 2", h.CachedHome(0, 6))
	}
	h.Learn(0, 6)
	if h.CachedHome(0, 6) != 3 {
		t.Fatalf("learned CachedHome = %d, want 3", h.CachedHome(0, 6))
	}
	if h.CachedHome(1, 6) != 2 {
		t.Fatal("learning must be per node")
	}
	// Learning a home that equals the static home changes nothing.
	h.Learn(0, 5)
	if h.CachedHome(0, 5) != 1 {
		t.Fatalf("CachedHome(0,5) = %d, want 1", h.CachedHome(0, 5))
	}
}
