package critpath

import (
	"fmt"
	"io"
	"iter"
	"sort"
	"strconv"

	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// NodeTime is one node's share of the critical path.
type NodeTime struct {
	Node   int
	Time   sim.Time
	Events int
}

// RegionTime is one heap region's share of the critical path: path time
// of message records concerning blocks inside the region.
type RegionTime struct {
	Name   string
	Time   sim.Time
	Events int
}

// Report is the recovered critical path of one run: a contiguous
// dependency chain from t=0 to the final virtual time, attributed per
// component, per node and per heap region. Total equals the run's
// completion time exactly (tested as the exact-path invariant).
type Report struct {
	Total    sim.Time // critical-path length == final virtual time
	Events   int      // records on the path
	Recorded int      // records tracked in the whole run

	// Components splits Total by segment classification; the entries sum
	// to Total exactly.
	Components [NumComponents]sim.Time

	// Scalable sums, per what-if cost class, the scalable portion of the
	// path's records — the basis of Predict.
	Scalable [NumClasses]sim.Time

	// Nodes attributes path time to the node each segment ran on (wire
	// segments book to the destination); Regions attributes the
	// block-carrying segments to heap regions, address-ordered.
	Nodes   []NodeTime
	Regions []RegionTime
}

// Report recovers the critical path by walking back from the record with
// the latest end. regions and blockSize map block-carrying records to
// named heap allocations (both may be zero for synthetic trackers).
func (t *Tracker) Report(regions []mem.Region, blockSize int) *Report {
	rep := &Report{Recorded: int(t.n)}
	rep.Nodes = make([]NodeTime, len(t.procLast))
	for i := range rep.Nodes {
		rep.Nodes[i].Node = i
	}
	regionTimes := make([]RegionTime, len(regions)+1) // the regions', then the unlabeled remainder's
	for id := t.final; id != 0; {
		r := t.rec(id)
		span := r.end - r.start
		rep.Total += span
		rep.Events++
		rep.Components[r.comp] += span
		rep.Scalable[classOf(r.comp)] += r.scalable
		if n := int(r.node); n >= 0 && n < len(rep.Nodes) {
			rep.Nodes[n].Time += span
			rep.Nodes[n].Events++
		}
		if r.block >= 0 {
			rt := &regionTimes[regionOf(regions, int(r.block), blockSize)]
			rt.Time += span
			rt.Events++
		}
		id = r.pred
	}
	// Keep, in place and in address order, the regions the path touched.
	kept := 0
	for i, rt := range regionTimes {
		if rt.Events == 0 {
			continue
		}
		rt.Name = "(unlabeled)"
		if i < len(regions) {
			rt.Name = regions[i].Name
		}
		regionTimes[kept] = rt
		kept++
	}
	if kept > 0 {
		rep.Regions = regionTimes[:kept]
	}
	return rep
}

// regionOf returns the index of the heap region holding block among
// regions (address-ordered, as mem.Allocator produces them), or
// len(regions) for a block in none of them.
func regionOf(regions []mem.Region, block, blockSize int) int {
	if blockSize <= 0 {
		return len(regions)
	}
	addr := block * blockSize
	i := sort.Search(len(regions), func(i int) bool { return regions[i].Start+regions[i].Size > addr })
	if i < len(regions) && regions[i].Start <= addr {
		return i
	}
	return len(regions)
}

// Span is one record of the recovered critical path. Block is -1 for
// segments that concern no memory block.
type Span struct {
	Start, End sim.Time
	Node       int
	Block      int
	Comp       Component
}

// Path yields the critical path's records in time order (t=0 to the final
// event), for trace emission. The chain is linked backwards, so Path turns
// its links around in place to walk it forwards, and turns each one back as
// it passes: nothing is allocated per record, and the tracker is as it was
// when Path returns, however early the loop stops.
func (t *Tracker) Path() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		root := int32(0)
		for id := t.final; id != 0; {
			r := t.rec(id)
			id, r.pred, root = r.pred, root, id
		}
		more := true
		for id, pred := root, int32(0); id != 0; {
			r := t.rec(id)
			id, r.pred, pred = r.pred, pred, id
			more = more && yield(Span{Start: r.start, End: r.end,
				Node: int(r.node), Block: int(r.block), Comp: r.comp})
		}
	}
}

// TopNodes returns the top-n nodes by path time (ties: lower id). n <= 0
// returns all.
func (r *Report) TopNodes(n int) []NodeTime {
	out := append([]NodeTime(nil), r.Nodes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// TopRegions returns the top-n regions by path time (ties: address
// order). n <= 0 returns all.
func (r *Report) TopRegions(n int) []RegionTime {
	out := append([]RegionTime(nil), r.Regions...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Frac returns component c's fraction of the path.
func (r *Report) Frac(c Component) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Components[c]) / float64(r.Total)
}

// fmtMS renders a virtual duration as milliseconds with three fractional
// digits (deterministic).
func fmtMS(t sim.Time) string {
	return strconv.FormatFloat(float64(t)/1e6, 'f', 3, 64) + "ms"
}

// WriteText renders the deterministic human-readable report: the path
// length and its component breakdown, then the top-n nodes and regions
// (n <= 0 prints every entry).
func (r *Report) WriteText(w io.Writer, top int) error {
	if _, err := fmt.Fprintf(w, "critical path: %s over %d events (%d recorded)\n",
		fmtMS(r.Total), r.Events, r.Recorded); err != nil {
		return err
	}
	for c := Component(0); c < NumComponents; c++ {
		if r.Components[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-13s %14s %6.1f%%\n", c, fmtMS(r.Components[c]), 100*r.Frac(c))
	}
	if nodes := r.TopNodes(top); len(nodes) > 0 {
		fmt.Fprintf(w, "  top nodes on the path:\n")
		for _, nt := range nodes {
			if nt.Time == 0 {
				continue
			}
			fmt.Fprintf(w, "    node%-4d %14s %6.1f%%  (%d events)\n",
				nt.Node, fmtMS(nt.Time), 100*float64(nt.Time)/float64(r.Total), nt.Events)
		}
	}
	if regs := r.TopRegions(top); len(regs) > 0 {
		fmt.Fprintf(w, "  top regions on the path:\n")
		for _, rt := range regs {
			fmt.Fprintf(w, "    %-24s %14s %6.1f%%  (%d events)\n",
				rt.Name, fmtMS(rt.Time), 100*float64(rt.Time)/float64(r.Total), rt.Events)
		}
	}
	return nil
}

// CSVHeader is the schema of the critical-path CSV row (without a
// trailing newline): one row per run. Sweep sinks prefix it with the
// run-key columns.
const CSVHeader = "crit_total_ns,crit_events,compute_ns,straggler_ns,overhead_ns," +
	"msg_wire_ns,msg_service_ns,lock_wait_ns,barrier_wait_ns,forward_ns,retransmit_ns"

// AppendRow appends the report's CSV row to b, prefixed with prefix
// (pass "app,proto,..." including the trailing comma, or "").
func (r *Report) AppendRow(b []byte, prefix string) []byte {
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(r.Total), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.Events), 10)
	for c := Component(0); c < NumComponents; c++ {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r.Components[c]), 10)
	}
	return append(b, '\n')
}
