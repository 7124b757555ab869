// Package metrics is the simulator's per-run observability layer above the
// raw counters of internal/stats and internal/network: a virtual-time
// sampler turning per-node totals and the machine's summed traffic
// (network.Traffic) into deterministic time-series, and a phase accountant
// cutting the per-node totals at barrier epochs into the paper's Figure-2
// execution-time breakdown. (The live view of a whole sweep, served at
// /metrics, is sweep.Registry.)
//
// Both are strictly observational, like internal/trace: the sampler is
// driven by sim.Engine.SetSampler (which fires between event dispatches,
// never from the event queue), and the phase accountant is pure
// bookkeeping in proc context. Enabling either leaves virtual time, every
// counter, and all existing output byte-identical (tested).
package metrics

import (
	"strconv"

	"dsmsim/internal/digest"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
)

// Probes are the machine-wide gauges the sampler reads at each boundary,
// beyond the per-node stats it snapshots itself. Each must be a pure read;
// a nil probe leaves its columns at 0.
type Probes struct {
	// Traffic returns the cumulative whole-machine message counters
	// (network.Network.Traffic); the reliability ones stay 0 on runs
	// without a wire-active fault plan.
	Traffic func() network.Traffic
	// LockQueue returns how many nodes are queued behind held locks now.
	LockQueue func() int64
	// Sharing returns the sharing-pattern profiler's cumulative true-
	// and false-sharing fault totals; nil (or zero) when profiling is
	// off, so the columns render as 0 and unprofiled series keep the
	// same schema.
	Sharing func() (trueFaults, falseFaults int64)
}

// Sample is one interval of the time-series: deltas of every counter and
// time component over (previous boundary, At], plus point-in-time gauges.
type Sample struct {
	At        sim.Time       // end of the interval
	Delta     stats.Snapshot // per-node stats summed across nodes, as deltas
	NetMsgs   int64          // messages sent in the interval
	NetBytes  int64          // bytes sent in the interval
	LockQueue int64          // nodes queued behind locks at time At (gauge)

	// Retransmits, Timeouts, WireDrops and Duplicates are the interval's
	// link-layer reliability deltas; zero except under a wire-active
	// fault plan. (The CSV schema carries retransmits and wire_drops;
	// the run record carries all four.)
	Retransmits int64
	Timeouts    int64
	WireDrops   int64
	Duplicates  int64

	// TrueSharing and FalseSharing are the interval's attributed
	// sharing-fault deltas; zero unless the sharing-pattern profiler is
	// attached (Config.ShareProfile).
	TrueSharing  int64
	FalseSharing int64
}

// Sampler accumulates Samples at fixed virtual-time boundaries. Tick is
// designed to be passed to sim.Engine.SetSampler; Finish flushes the final
// partial interval after the run (boundaries past the last event never
// fire inside the engine).
type Sampler struct {
	every  sim.Time
	nodes  []*stats.Node
	probes Probes
	SamplerState
}

// SamplerState is what a sampler has accumulated mid-run: the previous
// boundary's cumulative snapshots (everything in stats.Snapshot is a
// value) and the series recorded so far. A forked run restores it onto a
// fresh sampler so its series continues seamlessly — same boundaries,
// same deltas — as if the prefix had been simulated in place.
type SamplerState struct {
	prev             stats.Snapshot
	prevNet          network.Traffic
	prevTru, prevFls int64
	series           Series
}

// NewSampler creates a sampler over the given per-node stats.
func NewSampler(every sim.Time, nodes []*stats.Node, probes Probes) *Sampler {
	return &Sampler{
		every:        every,
		nodes:        nodes,
		probes:       probes,
		SamplerState: SamplerState{series: Series{Every: every, Nodes: len(nodes)}},
	}
}

// Tick records the interval ending at boundary. Engine-sampler context:
// it must not (and does not) schedule events or advance time.
func (s *Sampler) Tick(boundary sim.Time) { s.cut(boundary) }

// Finish records the final partial interval ending at end (the run's final
// virtual time), if any time passed since the last boundary.
func (s *Sampler) Finish(end sim.Time) {
	if n := len(s.series.Samples); n > 0 && s.series.Samples[n-1].At >= end {
		return
	}
	s.cut(end)
}

func (s *Sampler) cut(at sim.Time) {
	var cur stats.Snapshot
	for _, n := range s.nodes {
		snap := n.Snap()
		snap.AddTo(&cur)
	}
	sm := Sample{At: at, Delta: cur}
	sm.Delta.Sub(&s.prev)
	if s.probes.Traffic != nil {
		t, p := s.probes.Traffic(), &s.prevNet
		sm.NetMsgs, sm.NetBytes = t.MsgsSent-p.MsgsSent, t.BytesSent-p.BytesSent
		sm.Retransmits, sm.Timeouts = t.Retransmits-p.Retransmits, t.Timeouts-p.Timeouts
		sm.WireDrops, sm.Duplicates = t.WireDrops-p.WireDrops, t.Duplicates-p.Duplicates
		s.prevNet = t
	}
	if s.probes.LockQueue != nil {
		sm.LockQueue = s.probes.LockQueue()
	}
	if s.probes.Sharing != nil {
		t, f := s.probes.Sharing()
		sm.TrueSharing, sm.FalseSharing = t-s.prevTru, f-s.prevFls
		s.prevTru, s.prevFls = t, f
	}
	s.prev = cur
	s.series.Samples = append(s.series.Samples, sm)
}

// Series returns the accumulated time-series.
func (s *Sampler) Series() *Series { return &s.series }

// CaptureState snapshots the sampler.
func (s *Sampler) CaptureState() *SamplerState { return digest.Clone(&s.SamplerState) }

// RestoreState applies a snapshot to a fresh sampler with the same
// interval and node count (copied, so the snapshot stays pristine).
func (s *Sampler) RestoreState(st *SamplerState) { digest.Copy(&s.SamplerState, st) }

// Series is a completed sampler time-series, exported as CSV rows and
// whole in the run record.
type Series struct {
	Every   sim.Time // the sampling interval (the last sample may be shorter)
	Nodes   int
	Samples []Sample
}

// SeriesHeader is the schema of the sampler's CSV rows (without a trailing
// newline). Sweep sinks prefix it with the run-key columns.
const SeriesHeader = "t_ns,read_faults,write_faults,invalidations,diffs_created,diff_bytes," +
	"write_notices,lock_acquires,barrier_entries,net_msgs,net_bytes," +
	"compute_ns,read_stall_ns,write_stall_ns,lock_stall_ns,barrier_stall_ns," +
	"flush_ns,stolen_ns,lock_queue,fault_rate_hz,stall_frac,diff_bytes_per_s," +
	"retransmits,wire_drops,true_sharing,false_sharing"

// AppendRows appends one CSV row per sample to b, each prefixed with
// prefix (pass "app,proto,..." including the trailing comma, or ""). All
// numbers are rendered deterministically: integers as decimal, derived
// rates with exactly three fractional digits.
func (s *Series) AppendRows(b []byte, prefix string) []byte {
	prevAt := sim.Time(0)
	for _, sm := range s.Samples {
		iv := sm.At - prevAt
		prevAt = sm.At
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(sm.At), 10)
		d := &sm.Delta
		for _, v := range [...]int64{
			d.ReadFaults, d.WriteFaults, d.Invalidations, d.DiffsCreated,
			d.DiffPayloadBytes, d.WriteNoticesSent, d.LockAcquires,
			d.BarrierEntries, sm.NetMsgs, sm.NetBytes,
			int64(d.Compute), int64(d.ReadStall), int64(d.WriteStall),
			int64(d.LockStall), int64(d.BarrierStall), int64(d.FlushTime),
			int64(d.Stolen), sm.LockQueue,
		} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		secs := float64(iv) / float64(sim.Second)
		b = append(b, ',')
		b = appendRate(b, float64(d.ReadFaults+d.WriteFaults), secs)
		b = append(b, ',')
		// Stall fraction: all four stall components over the interval's
		// total node-time (nodes run in parallel, so the interval offers
		// Nodes × iv of node-time).
		b = appendRate(b,
			float64(d.ReadStall+d.WriteStall+d.LockStall+d.BarrierStall),
			float64(int64(iv)*int64(s.Nodes)))
		b = append(b, ',')
		b = appendRate(b, float64(d.DiffPayloadBytes), secs)
		b = append(b, ',')
		b = strconv.AppendInt(b, sm.Retransmits, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, sm.WireDrops, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, sm.TrueSharing, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, sm.FalseSharing, 10)
		b = append(b, '\n')
	}
	return b
}

// appendRate renders num/den with three fractional digits; a zero
// denominator (an empty interval) renders as 0.000.
func appendRate(b []byte, num, den float64) []byte {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}
