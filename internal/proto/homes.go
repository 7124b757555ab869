package proto

// Homes tracks block home assignment. Before the parallel phase, block b is
// statically homed at (b mod nodes). When the parallel phase begins, homes
// are cleared and migrate to the first node that "touches" each block — a
// load or store for SC and SW-LRC, a store for HLRC (§2). The static home
// remains the directory: it always knows the current home and forwards or
// redirects requests from nodes holding stale cached homes.
//
// The representation is sparse: the static assignment is arithmetic
// (b mod nodes), claims are a paged bitmap, and only blocks whose
// first-touch home differs from the static one carry an overlay entry.
// The overlay also records, per migrated block, which nodes have
// learned the true home (from a data grant), replacing the old dense
// per-node × per-block home-cache arrays: a node's cached home is
// provably either the static home (not yet learned — requests route to
// the directory, which forwards) or the true home, because a home never
// changes once claimed.
type Homes struct {
	nodes      int
	numBlocks  int
	firstTouch bool
	claimed    Copyset          // blocks claimed since BeginFirstTouch
	moved      Table[movedHome] // overlay for claimed blocks whose home ≠ static
}

// movedHome is the overlay entry for a block whose first-touch home
// differs from its static home: the claimed home, plus the set of
// nodes that have learned it.
type movedHome struct {
	home  int32 // -1 until the block migrates away from its static home
	known Copyset
}

var _ = PoolShards[movedHome]()

// NewHomes returns the static assignment for the given block count.
func NewHomes(nodes, numBlocks int) *Homes {
	return &Homes{
		nodes:     nodes,
		numBlocks: numBlocks,
		moved:     NewTable[movedHome](numBlocks, func(m *movedHome) { m.home = -1 }),
	}
}

// Static returns block b's static home — the directory node.
func (h *Homes) Static(b int) int { return b % h.nodes }

// Home returns block b's current home, or -1 if first-touch migration
// is active and the block is still unclaimed.
func (h *Homes) Home(b int) int {
	if h.firstTouch && !h.claimed.Contains(b) {
		return -1
	}
	if m := h.moved.Peek(b); m != nil && m.home >= 0 {
		return int(m.home)
	}
	return h.Static(b)
}

// NumBlocks returns the number of blocks tracked.
func (h *Homes) NumBlocks() int { return h.numBlocks }

// BeginFirstTouch clears every assignment and enables first-touch
// migration. Until a block is claimed, its data lives at the static home.
func (h *Homes) BeginFirstTouch() {
	h.firstTouch = true
	h.claimed.Clear()
}

// Claimed reports whether block b has a first-touch home yet. Before
// BeginFirstTouch every block counts as claimed (statically).
func (h *Homes) Claimed(b int) bool {
	return !h.firstTouch || h.claimed.Contains(b)
}

// Claim makes node the home of block b if it has none, and returns the
// resulting home plus whether this call performed the migration.
func (h *Homes) Claim(b, node int) (home int, migrated bool) {
	if h.firstTouch && !h.claimed.Contains(b) {
		h.claimed.Add(b)
		if node != h.Static(b) {
			h.moved.At(b).home = int32(node)
		}
		return node, true
	}
	return h.Home(b), false
}

// CachedHome returns the home that node currently believes block b has:
// the true home once the node has learned it from a data grant, the
// static home (the directory, which forwards) until then. This is the
// sparse replacement for the per-node home-cache arrays.
func (h *Homes) CachedHome(node, b int) int {
	if m := h.moved.Peek(b); m != nil && m.home >= 0 && m.known.Contains(node) {
		return int(m.home)
	}
	return h.Static(b)
}

// Learn records that node has been told block b's current home (it
// received data from it). Learning the static home is a no-op: that is
// already every node's default belief.
func (h *Homes) Learn(node, b int) {
	if m := h.moved.Peek(b); m != nil && m.home >= 0 {
		m.known.Add(node)
	}
}

// MemBytes reports the heap footprint of the home map: the claim
// bitmap plus the migrated-block overlay (entries and their learned
// sets).
func (h *Homes) MemBytes() int64 {
	b := h.claimed.MemBytes() + h.moved.MemBytes(16)
	for _, m := range h.moved.All() {
		b += m.known.MemBytes()
	}
	return b
}
