package shareprof

import (
	"bytes"
	"testing"

	"dsmsim/internal/mem"
)

// feed runs a sequence of (node, write) observations through a fresh
// classifier and returns it.
func feed(obs ...[2]int) *classifier {
	var s classifier
	for _, o := range obs {
		s.observe(o[0], o[1] == 1)
	}
	return &s
}

const r, w = 0, 1

// TestClassifierTransitions drives every edge of the taxonomy state
// machine.
func TestClassifierTransitions(t *testing.T) {
	cases := []struct {
		name string
		obs  [][2]int
		want Class
	}{
		{"untouched", nil, Untouched},
		{"private read", [][2]int{{0, r}}, Private},
		{"private write", [][2]int{{0, w}}, Private},
		{"private self loop", [][2]int{{0, r}, {0, w}, {0, r}, {0, w}}, Private},
		{"read-only", [][2]int{{0, r}, {1, r}, {2, r}}, ReadOnly},
		{"producer then consumer", [][2]int{{0, w}, {1, r}}, ProducerConsumer},
		{"reader then producer", [][2]int{{0, r}, {1, w}}, ProducerConsumer},
		{"two writers no handoff", [][2]int{{0, w}, {1, w}}, WriteShared},
		{"read-only then writer", [][2]int{{0, r}, {1, r}, {2, w}}, ProducerConsumer},
		{"pc reader accumulates", [][2]int{{0, w}, {1, r}, {2, r}}, ProducerConsumer},
		{"pc producer rewrites", [][2]int{{0, w}, {1, r}, {0, w}, {0, w}}, ProducerConsumer},
		// The producer's rewrite resets the reader set, so a stale reader
		// writing afterwards is not a handoff.
		{"pc reset breaks handoff", [][2]int{{0, w}, {1, r}, {0, w}, {1, w}}, WriteShared},
		{"pc consumer writes (handoff)", [][2]int{{0, w}, {1, r}, {1, w}}, Migratory},
		{"pc outsider writes", [][2]int{{0, w}, {1, r}, {2, w}}, WriteShared},
		{"migratory chain", [][2]int{{0, w}, {1, r}, {1, w}, {2, r}, {2, w}, {0, r}, {0, w}}, Migratory},
		{"migratory owner rewrites", [][2]int{{0, w}, {1, r}, {1, w}, {1, w}}, Migratory},
		{"migratory outsider writes", [][2]int{{0, w}, {1, r}, {1, w}, {2, w}}, WriteShared},
		{"write-shared absorbs", [][2]int{{0, w}, {1, w}, {2, r}, {2, w}, {0, r}}, WriteShared},
	}
	for _, tc := range cases {
		if got := feed(tc.obs...).result(); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	want := []string{"untouched", "private", "read-only", "prod-cons", "migratory", "write-shared"}
	for c := Untouched; c < NumClasses; c++ {
		if c.String() != want[c] {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want[c])
		}
	}
}

func TestMaskFor(t *testing.T) {
	p := New(2, 128, 64) // 8-byte sectors, 8 per block
	if p.SectorSize() != 8 {
		t.Fatalf("sector size %d, want 8", p.SectorSize())
	}
	cases := []struct {
		lo, hi int
		want   uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 8, 1},
		{8, 16, 2},
		{7, 9, 3},
		{63, 64, 0x80},
		{0, 64, 0xFF},
	}
	for _, tc := range cases {
		if got := p.maskFor(tc.lo, tc.hi); got != tc.want {
			t.Errorf("maskFor(%d, %d) = %#x, want %#x", tc.lo, tc.hi, got, tc.want)
		}
	}
	// 4KB blocks clamp to 64 sectors of 64 bytes; a full-block span must
	// not overflow the shift.
	big := New(2, 8192, 4096)
	if big.SectorSize() != 64 {
		t.Fatalf("4KB sector size %d, want 64", big.SectorSize())
	}
	if got := big.maskFor(0, 4096); got != ^uint64(0) {
		t.Errorf("full-block mask = %#x, want all ones", got)
	}
	// Tiny blocks collapse to a single sector.
	tiny := New(2, 64, 4)
	if tiny.SectorSize() != 4 || tiny.maskFor(0, 4) != 1 {
		t.Errorf("4B block: sector %d mask %#x", tiny.SectorSize(), tiny.maskFor(0, 4))
	}
}

// TestFaultVerdicts walks one block through all four verdicts.
func TestFaultVerdicts(t *testing.T) {
	p := New(2, 128, 64)
	counters := func() blockCounters { return p.c[0] }

	// Node 1 faults without ever having touched the block: cold.
	p.Fault(1, 0, 0, 8, false)
	if c := counters(); c.cold != 1 || c.readFaults != 1 {
		t.Fatalf("cold verdict: %+v", c)
	}
	p.Access(1, 0, 8, false)

	// Node 0 writes sector 0; node 1 reads exactly that span: true sharing.
	p.Access(0, 0, 8, true)
	p.Fault(1, 0, 0, 8, false)
	if c := counters(); c.truef != 1 {
		t.Fatalf("true verdict: %+v", c)
	}

	// Stale data exists (sector 0) but node 1 accesses a disjoint sector:
	// the miss is pure block-size artifact — false sharing.
	p.Fault(1, 0, 32, 8, false)
	if c := counters(); c.falsef != 1 {
		t.Fatalf("false verdict: %+v", c)
	}

	// A fill makes node 1 current; the next fault is a permission miss.
	p.Filled(1, 0)
	p.Fault(1, 0, 0, 8, true)
	if c := counters(); c.upgrade != 1 || c.writeFaults != 1 {
		t.Fatalf("upgrade verdict: %+v", c)
	}
	if tf, ff := p.SharingFaults(); tf != 1 || ff != 1 {
		t.Fatalf("SharingFaults() = %d, %d", tf, ff)
	}
	// A write by the faulting node must not mark its own copy stale.
	p.Access(1, 0, 8, true)
	if p.stale[0*p.nodes+1] != 0 {
		t.Fatal("writer's own copy marked stale")
	}
	if p.stale[0*p.nodes+0]&1 == 0 {
		t.Fatal("other node's copy not marked stale")
	}
}

// TestAccessSpansBlocks checks per-block clipping of a straddling access.
func TestAccessSpansBlocks(t *testing.T) {
	p := New(2, 128, 64)
	p.Access(0, 56, 16, true) // last sector of block 0, first of block 1
	if p.stale[0*p.nodes+1] != 0x80 {
		t.Errorf("block 0 stale = %#x, want 0x80", p.stale[0*p.nodes+1])
	}
	if p.stale[1*p.nodes+1] != 0x01 {
		t.Errorf("block 1 stale = %#x, want 0x01", p.stale[1*p.nodes+1])
	}
}

// TestInvalidationAttribution checks the lazy pending-invalidation path:
// resolved by the victim's next fault, or at Report time from stale∩touch.
func TestInvalidationAttribution(t *testing.T) {
	p := New(2, 128, 64)
	p.Access(1, 0, 8, false)
	p.Access(0, 0, 8, true)
	p.OnTag(1, 0, mem.ReadOnly, mem.NoAccess)
	if p.c[0].invals != 1 {
		t.Fatalf("invals = %d", p.c[0].invals)
	}
	p.Fault(1, 0, 0, 8, false) // true-sharing fault resolves the pending inval
	if c := p.c[0]; c.trueInval != 1 || c.falseInval != 0 {
		t.Fatalf("resolved inval: %+v", c)
	}
	// A NoAccess→NoAccess or upgrade transition is not an invalidation.
	p.OnTag(1, 0, mem.NoAccess, mem.ReadOnly)
	p.OnTag(1, 0, mem.ReadOnly, mem.ReadWrite)
	if p.c[0].invals != 1 {
		t.Fatalf("non-invalidating transitions counted: %d", p.c[0].invals)
	}

	// Leftover pendings: block 1, node 1 touched sector 1 only; node 0
	// wrote sector 0 only — disjoint, so the run-end resolution calls the
	// lost copy false sharing.
	p.Access(1, 64+8, 8, false)
	p.Access(0, 64, 8, true)
	p.OnTag(1, 1, mem.ReadOnly, mem.NoAccess)
	rep := p.Report(nil)
	if got := rep.Total.FalseInvals; got != 1 {
		t.Fatalf("leftover false inval = %d, want 1", got)
	}
	if got := rep.Total.TrueInvals; got != 1 {
		t.Fatalf("true invals = %d, want 1", got)
	}
}

// TestDiffApplied checks that a diff refreshes exactly the diffed sectors.
func TestDiffApplied(t *testing.T) {
	p := New(2, 128, 64)
	p.Access(1, 0, 64, false)
	p.Access(0, 0, 64, true) // all 8 sectors stale at node 1
	d := mem.Diff{Runs: []mem.DiffRun{{Off: 0, Data: make([]byte, 8)}, {Off: 32, Data: make([]byte, 8)}}}
	p.DiffApplied(1, 0, d)
	if got := p.stale[0*p.nodes+1]; got != 0xFF&^uint64(1|1<<4) {
		t.Errorf("stale after diff = %#x", got)
	}
	if p.c[0].fetchBytes != 16 {
		t.Errorf("fetchBytes = %d, want 16 (diff payload only)", p.c[0].fetchBytes)
	}
}

// TestReportRegions checks region aggregation: blocks land in the region
// holding their first byte, unlabeled blocks pool separately, totals add
// up, and both renderings are deterministic.
func TestReportRegions(t *testing.T) {
	build := func() *Report {
		p := New(2, 4*64, 64)
		p.Access(0, 0, 8, true)    // block 0: region a
		p.Access(1, 0, 8, false)   // -> producer-consumer
		p.Access(0, 64, 8, false)  // block 1: region a, private
		p.Access(0, 128, 8, false) // block 2: region b
		p.Access(1, 128, 8, false) // -> read-only
		p.Access(0, 192, 8, true)  // block 3: unlabeled, private
		p.Fault(1, 0, 0, 8, false)
		return p.Report([]mem.Region{
			{Name: "a", Start: 0, Size: 128},
			{Name: "b", Start: 128, Size: 64},
		})
	}
	rep := build()
	if len(rep.Regions) != 3 {
		t.Fatalf("regions = %d, want 3 (a, b, unlabeled)", len(rep.Regions))
	}
	a, b, un := rep.Regions[0], rep.Regions[1], rep.Regions[2]
	if a.Name != "a" || a.TouchedBlocks != 2 || a.Classes[ProducerConsumer] != 1 || a.Classes[Private] != 1 {
		t.Errorf("region a: %+v", a)
	}
	if b.Name != "b" || b.TouchedBlocks != 1 || b.Classes[ReadOnly] != 1 {
		t.Errorf("region b: %+v", b)
	}
	if un.Name != "(unlabeled)" || un.Start != -1 || un.TouchedBlocks != 1 || un.Size != 64 {
		t.Errorf("unlabeled: %+v", un)
	}
	if rep.Total.TouchedBlocks != 4 || rep.Total.Faults() != 1 {
		t.Errorf("total: %+v", rep.Total)
	}
	sum := a.TouchedBlocks + b.TouchedBlocks + un.TouchedBlocks
	if sum != rep.Total.TouchedBlocks {
		t.Errorf("region blocks %d != total %d", sum, rep.Total.TouchedBlocks)
	}

	// Determinism: two identical runs render byte-identically.
	var t1, t2 bytes.Buffer
	rep2 := build()
	rep.WriteText(&t1, 0)
	rep2.WriteText(&t2, 0)
	c1, c2 := rep.AppendRows(nil, ""), rep2.AppendRows(nil, "")
	if t1.String() != t2.String() || string(c1) != string(c2) {
		t.Fatal("report rendering not deterministic")
	}
	if lines := bytes.Count(c1, []byte("\n")); lines != 3+1 {
		t.Fatalf("CSV line count %d, want 3 regions + total", lines)
	}
}

// TestTopRanking checks the hot-region ordering.
func TestTopRanking(t *testing.T) {
	rep := &Report{Regions: []RegionStats{
		{Name: "cool", Start: 0, ReadFaults: 1},
		{Name: "hot", Start: 64, ReadFaults: 5},
		{Name: "falsy", Start: 128, ReadFaults: 1, FalseFaults: 1},
	}}
	top := rep.Top(2)
	if len(top) != 2 || top[0].Name != "hot" || top[1].Name != "falsy" {
		t.Fatalf("Top(2) = %v", top)
	}
	if all := rep.Top(0); len(all) != 3 {
		t.Fatalf("Top(0) = %d regions", len(all))
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 128, 64) },
		func() { New(1025, 128, 64) },
		func() { New(2, 128, 48) },
		func() { New(2, 128, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New accepted invalid arguments")
				}
			}()
			fn()
		}()
	}
}
