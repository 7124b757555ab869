package shareprof

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"dsmsim/internal/mem"
)

// RegionStats aggregates the profile over one named heap region (or the
// synthetic "(unlabeled)" remainder, whose Start is -1).
type RegionStats struct {
	Name  string
	Start int // first byte of the region; -1 for the unlabeled remainder
	Size  int // bytes

	// TouchedBlocks counts blocks of the region accessed at least once;
	// Classes splits them by final sharing-pattern classification.
	TouchedBlocks int
	Classes       [NumClasses]int

	// Fault counts and their attribution (cold + true + false + upgrade
	// equals read + write faults).
	ReadFaults, WriteFaults                            int64
	ColdFaults, TrueFaults, FalseFaults, UpgradeFaults int64

	// Invalidations are lost copies (tag transitions to NoAccess),
	// attributed like faults; FetchBytes counts block fills and diff
	// payloads that moved for this region's blocks.
	Invalidations, TrueInvals, FalseInvals int64
	FetchBytes                             int64
}

// Faults returns the region's total fault count.
func (r *RegionStats) Faults() int64 { return r.ReadFaults + r.WriteFaults }

// FalseFraction returns the fraction of sharing misses (true + false)
// that were false sharing; 0 when the region had no sharing misses.
func (r *RegionStats) FalseFraction() float64 {
	s := r.TrueFaults + r.FalseFaults
	if s == 0 {
		return 0
	}
	return float64(r.FalseFaults) / float64(s)
}

// TopClass returns the most common final classification among the
// region's touched blocks (ties resolve to the weaker pattern).
func (r *RegionStats) TopClass() Class {
	best, n := Untouched, 0
	for c := Private; c < NumClasses; c++ {
		if r.Classes[c] > n {
			best, n = c, r.Classes[c]
		}
	}
	return best
}

// Report is a run's complete sharing profile: whole-run totals plus one
// entry per touched named region, in heap address order.
type Report struct {
	BlockSize  int
	SectorSize int
	Nodes      int
	// Blocks is the heap's block count; Total.TouchedBlocks of them were
	// accessed.
	Blocks int

	// Total aggregates the whole heap; Regions splits it by named
	// allocation (only touched regions appear).
	Total   RegionStats
	Regions []RegionStats
}

// FalseSharingFraction returns the run-wide false fraction of sharing
// misses — the acceptance metric plotted against granularity.
func (r *Report) FalseSharingFraction() float64 { return r.Total.FalseFraction() }

// Top returns the top-n regions ranked by faults (ties: more false
// sharing first, then address order). n <= 0 returns all.
func (r *Report) Top(n int) []RegionStats {
	out := append([]RegionStats(nil), r.Regions...)
	sort.SliceStable(out, func(i, j int) bool {
		if a, b := out[i].Faults(), out[j].Faults(); a != b {
			return a > b
		}
		if out[i].FalseFaults != out[j].FalseFaults {
			return out[i].FalseFaults > out[j].FalseFaults
		}
		return out[i].Start < out[j].Start
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// aggregate folds the per-block ledgers into a Report over the given
// named regions (address-ordered, as mem.Allocator produces them).
func (p *Profiler) aggregate(regions []mem.Region) *Report {
	rep := &Report{
		BlockSize:  p.blockSize,
		SectorSize: p.SectorSize(),
		Nodes:      p.nodes,
		Blocks:     p.blocks,
		Total:      RegionStats{Name: "(total)", Start: 0, Size: p.blocks * p.blockSize},
	}
	stats := make([]RegionStats, len(regions))
	for i, rg := range regions {
		stats[i] = RegionStats{Name: rg.Name, Start: rg.Start, Size: rg.Size}
	}
	unlabeled := RegionStats{Name: "(unlabeled)", Start: -1}

	ri := 0
	for b := 0; b < p.blocks; b++ {
		if p.touched[b].Empty() {
			continue
		}
		addr := b << p.blockShift
		// Regions are address-ordered and blocks are visited in address
		// order: advance the region cursor, never rewind. A block is
		// attributed to the region containing its first byte.
		for ri < len(regions) && regions[ri].Start+regions[ri].Size <= addr {
			ri++
		}
		tgt := &unlabeled
		if ri < len(regions) && regions[ri].Start <= addr {
			tgt = &stats[ri]
		}
		c := &p.c[b]
		for _, t := range []*RegionStats{tgt, &rep.Total} {
			t.TouchedBlocks++
			t.Classes[p.cls[b].result()]++
			t.ReadFaults += c.readFaults
			t.WriteFaults += c.writeFaults
			t.ColdFaults += c.cold
			t.TrueFaults += c.truef
			t.FalseFaults += c.falsef
			t.UpgradeFaults += c.upgrade
			t.Invalidations += c.invals
			t.TrueInvals += c.trueInval
			t.FalseInvals += c.falseInval
			t.FetchBytes += c.fetchBytes
		}
		if tgt == &unlabeled {
			unlabeled.Size += p.blockSize
		}
	}
	for i := range stats {
		if stats[i].TouchedBlocks > 0 {
			rep.Regions = append(rep.Regions, stats[i])
		}
	}
	if unlabeled.TouchedBlocks > 0 {
		rep.Regions = append(rep.Regions, unlabeled)
	}
	return rep
}

// WriteText renders the deterministic human-readable report: whole-run
// totals followed by the top-n regions (n <= 0 prints every region).
func (r *Report) WriteText(w io.Writer, top int) error {
	t := &r.Total
	if _, err := fmt.Fprintf(w,
		"sharing profile: %d/%d blocks touched (block %dB, sector %dB, %d nodes)\n",
		t.TouchedBlocks, r.Blocks, r.BlockSize, r.SectorSize, r.Nodes); err != nil {
		return err
	}
	fmt.Fprintf(w, "  classes: private %d  read-only %d  prod-cons %d  migratory %d  write-shared %d\n",
		t.Classes[Private], t.Classes[ReadOnly], t.Classes[ProducerConsumer],
		t.Classes[Migratory], t.Classes[WriteShared])
	fmt.Fprintf(w, "  faults %d (read %d, write %d): cold %d  true %d  false %d  upgrade %d   false-sharing %.1f%% of sharing misses\n",
		t.Faults(), t.ReadFaults, t.WriteFaults,
		t.ColdFaults, t.TrueFaults, t.FalseFaults, t.UpgradeFaults,
		100*t.FalseFraction())
	fmt.Fprintf(w, "  invalidations %d: true %d  false %d   data moved %dKB\n",
		t.Invalidations, t.TrueInvals, t.FalseInvals, t.FetchBytes/1024)
	regs := r.Top(top)
	if len(regs) == 0 {
		return nil
	}
	fmt.Fprintf(w, "  %-24s %7s %8s %8s %8s %7s %7s %9s  %s\n",
		"region", "blocks", "faults", "true", "false", "false%", "inval", "fetchKB", "class")
	for i := range regs {
		rg := &regs[i]
		fmt.Fprintf(w, "  %-24s %7d %8d %8d %8d %6.1f%% %7d %9d  %s\n",
			rg.Name, rg.TouchedBlocks, rg.Faults(), rg.TrueFaults, rg.FalseFaults,
			100*rg.FalseFraction(), rg.Invalidations, rg.FetchBytes/1024, rg.TopClass())
	}
	return nil
}

// CSVHeader is the schema of the profiler's CSV rows (without a trailing
// newline): one row per region plus a final "(total)" row per run. Sweep
// sinks prefix it with the run-key columns.
const CSVHeader = "region,start,bytes,blocks,read_faults,write_faults," +
	"cold,true_sharing,false_sharing,upgrade,false_frac," +
	"invalidations,true_invals,false_invals,fetch_bytes," +
	"private,read_only,prod_cons,migratory,write_shared"

// AppendRows appends the report's CSV rows to b, each prefixed with
// prefix (pass "app,proto,..." including the trailing comma, or "").
// Rendering is deterministic: integers in decimal, the false fraction
// with exactly three fractional digits.
func (r *Report) AppendRows(b []byte, prefix string) []byte {
	for i := range r.Regions {
		b = appendRegionRow(b, prefix, &r.Regions[i])
	}
	return appendRegionRow(b, prefix, &r.Total)
}

func appendRegionRow(b []byte, prefix string, rg *RegionStats) []byte {
	b = append(b, prefix...)
	b = append(b, rg.Name...)
	for _, v := range [...]int64{
		int64(rg.Start), int64(rg.Size), int64(rg.TouchedBlocks),
		rg.ReadFaults, rg.WriteFaults,
		rg.ColdFaults, rg.TrueFaults, rg.FalseFaults, rg.UpgradeFaults,
	} {
		b = append(b, ',')
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, ',')
	b = strconv.AppendFloat(b, rg.FalseFraction(), 'f', 3, 64)
	for _, v := range [...]int64{
		rg.Invalidations, rg.TrueInvals, rg.FalseInvals, rg.FetchBytes,
		int64(rg.Classes[Private]), int64(rg.Classes[ReadOnly]),
		int64(rg.Classes[ProducerConsumer]), int64(rg.Classes[Migratory]),
		int64(rg.Classes[WriteShared]),
	} {
		b = append(b, ',')
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '\n')
}
