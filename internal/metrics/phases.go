package metrics

import (
	"fmt"
	"strconv"

	"dsmsim/internal/digest"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
)

// Phase is one barrier-delimited epoch of a run, with the paper's Figure-2
// execution-time breakdown summed across nodes. Phase k covers, for each
// node, the span from that node's return out of barrier k-1 (or the run
// start) to its return out of barrier k; the final phase runs to each
// node's finish. Barriers are global, so epoch k means the same
// application phase on every node — e.g. Barnes' tree build vs. its force
// computation — even though the nodes cross the boundary at slightly
// different virtual times.
type Phase struct {
	Index int
	// End is the latest node-local time at which this phase ended.
	End sim.Time
	// Span is the total node-time of the phase: the sum over nodes of each
	// node's local elapsed time. Delta's seven time components sum to
	// exactly Span (the invariant the accounting tests pin).
	Span sim.Time
	// Delta holds every stats counter and time component accumulated
	// during the phase, summed across nodes.
	Delta stats.Snapshot
}

// The Figure-2 buckets. Compute is Delta.Compute directly.

// DataWait is time blocked in read and write faults.
func (p *Phase) DataWait() sim.Time { return p.Delta.ReadStall + p.Delta.WriteStall }

// SyncWait is time blocked in locks and barriers.
func (p *Phase) SyncWait() sim.Time { return p.Delta.LockStall + p.Delta.BarrierStall }

// Overhead is protocol work off the fault path: release-time diff flushes
// and service time stolen from computation.
func (p *Phase) Overhead() sim.Time { return p.Delta.FlushTime + p.Delta.Stolen }

// PhaseRow is one line of a phase table: a phase labelled with its index,
// or the sum of a run of phases labelled with their index range.
type PhaseRow struct {
	Label string
	Phase
}

// FoldPhases returns the rows of a phase table capped at n single phases:
// the first n phases, then, when more remain, one row summing the rest,
// labelled "first-last". FoldPhases(phases, 0)[0] is the whole run.
func FoldPhases(phases []Phase, n int) []PhaseRow {
	n = min(n, len(phases))
	rows := make([]PhaseRow, n, n+1)
	for i, ph := range phases[:n] {
		rows[i] = PhaseRow{strconv.Itoa(ph.Index), ph}
	}
	if rest := phases[n:]; len(rest) > 0 {
		sum := PhaseRow{fmt.Sprintf("%d-%d", rest[0].Index, rest[len(rest)-1].Index), Phase{Index: rest[0].Index}}
		for _, ph := range rest {
			sum.End, sum.Span = ph.End, sum.Span+ph.Span
			ph.Delta.AddTo(&sum.Delta)
		}
		rows = append(rows, sum)
	}
	return rows
}

// PhaseAccountant cuts each node's running stats at its barrier returns
// and aggregates the deltas into per-epoch Phases. Cut is called from proc
// context (pure bookkeeping — it cannot yield, schedule, or advance time),
// once per node per barrier, plus once per node when its body finishes.
type PhaseAccountant struct{ PhaseState }

// PhaseState is all of a phase accountant's state, which a checkpoint
// snapshots mid-run. A forked run restores it onto a fresh accountant so
// the per-epoch breakdown continues exactly where the prefix's accounting
// left off.
type PhaseState struct {
	prevAt []sim.Time
	prev   []stats.Snapshot
	epoch  []int
	phases []Phase
}

// NewPhaseAccountant creates an accountant for the given node count.
func NewPhaseAccountant(nodes int) *PhaseAccountant {
	return &PhaseAccountant{PhaseState{
		prevAt: make([]sim.Time, nodes),
		prev:   make([]stats.Snapshot, nodes),
		epoch:  make([]int, nodes),
	}}
}

// Cut ends node's current phase at time at, reading its stats from n.
func (a *PhaseAccountant) Cut(node int, at sim.Time, n *stats.Node) {
	k := a.epoch[node]
	a.epoch[node]++
	for len(a.phases) <= k {
		a.phases = append(a.phases, Phase{Index: len(a.phases)})
	}
	ph := &a.phases[k]
	cur := n.Snap()
	cur.AddTo(&ph.Delta)
	ph.Delta.Sub(&a.prev[node])
	ph.Span += at - a.prevAt[node]
	if at > ph.End {
		ph.End = at
	}
	a.prev[node] = cur
	a.prevAt[node] = at
}

// Epoch returns the number of cuts made for node: while its body runs, the
// barriers it has returned from.
func (a *PhaseAccountant) Epoch(node int) int { return a.epoch[node] }

// CaptureState snapshots the accountant.
func (a *PhaseAccountant) CaptureState() *PhaseState { return digest.Clone(&a.PhaseState) }

// RestoreState applies a snapshot to a fresh accountant with the same node
// count (copied, so the snapshot stays pristine).
func (a *PhaseAccountant) RestoreState(st *PhaseState) { digest.Copy(&a.PhaseState, st) }

// Phases returns the completed epochs. A trailing empty phase (every node
// finished exactly at its last barrier) is dropped.
func (a *PhaseAccountant) Phases() []Phase {
	ph := a.phases
	if n := len(ph); n > 0 && ph[n-1].Span == 0 && ph[n-1].Delta == (stats.Snapshot{}) {
		ph = ph[:n-1]
	}
	return ph
}
