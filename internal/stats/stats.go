// Package stats collects the per-node counters and time breakdown the
// paper reports: read/write fault counts (Tables 3–14), data traffic
// (Table 15), and the execution-time components behind the speedup curves.
package stats

import "dsmsim/internal/sim"

// Node holds one simulated node's counters. It is written only from engine
// context (one goroutine active at a time), so no locking is needed.
type Node struct {
	// Fault counts, the paper's per-app tables.
	ReadFaults  int64
	WriteFaults int64

	// Protocol activity.
	Invalidations    int64 // blocks invalidated (remote requests or notices)
	TwinsCreated     int64
	DiffsCreated     int64
	DiffsApplied     int64
	DiffPayloadBytes int64
	WriteNoticesSent int64
	WriteNoticesRecv int64
	HomeMigrations   int64 // blocks this node claimed by first touch
	Forwards         int64 // requests this node forwarded to the real home
	LeaseRenewals    int64 // read leases renewed with no data on the wire (TLC)
	LeaseExpiries    int64 // leased copies self-invalidated at a timestamp jump (TLC)
	TimestampJumps   int64 // logical-timestamp advances at acquires and write grants (TLC)

	// Synchronization.
	LockAcquires   int64
	BarrierEntries int64

	// Time breakdown of the node's critical path.
	Compute      sim.Time // user computation (including polling dilation)
	ReadStall    sim.Time // blocked in read faults
	WriteStall   sim.Time // blocked in write faults
	LockStall    sim.Time // blocked acquiring locks
	BarrierStall sim.Time // blocked at barriers
	FlushTime    sim.Time // release-time diff creation and flushing (HLRC)
	Stolen       sim.Time // protocol service stolen from computation
	Idle         sim.Time // after this node finished, waiting for the run to end

	// Latency distributions (virtual nanoseconds). The flat stall totals
	// above give the paper's breakdown; these give the shape behind it —
	// p50/p90/p99 of the same events.
	ReadFaultTime  Histogram // per read fault: start → access granted
	WriteFaultTime Histogram // per write fault: start → access granted
	LockWait       Histogram // per Lock call: request → grant applied
	BarrierWait    Histogram // per Barrier call: enter → release applied
}

// Add accumulates other into n.
func (n *Node) Add(other *Node) {
	n.ReadFaults += other.ReadFaults
	n.WriteFaults += other.WriteFaults
	n.Invalidations += other.Invalidations
	n.TwinsCreated += other.TwinsCreated
	n.DiffsCreated += other.DiffsCreated
	n.DiffsApplied += other.DiffsApplied
	n.DiffPayloadBytes += other.DiffPayloadBytes
	n.WriteNoticesSent += other.WriteNoticesSent
	n.WriteNoticesRecv += other.WriteNoticesRecv
	n.HomeMigrations += other.HomeMigrations
	n.Forwards += other.Forwards
	n.LeaseRenewals += other.LeaseRenewals
	n.LeaseExpiries += other.LeaseExpiries
	n.TimestampJumps += other.TimestampJumps
	n.LockAcquires += other.LockAcquires
	n.BarrierEntries += other.BarrierEntries
	n.Compute += other.Compute
	n.ReadStall += other.ReadStall
	n.WriteStall += other.WriteStall
	n.LockStall += other.LockStall
	n.BarrierStall += other.BarrierStall
	n.FlushTime += other.FlushTime
	n.Stolen += other.Stolen
	n.Idle += other.Idle
	n.ReadFaultTime.Merge(&other.ReadFaultTime)
	n.WriteFaultTime.Merge(&other.WriteFaultTime)
	n.LockWait.Merge(&other.LockWait)
	n.BarrierWait.Merge(&other.BarrierWait)
}

// Reset zeroes every counter (used at the parallel-phase boundary).
func (n *Node) Reset() { *n = Node{} }

// Snapshot is the histogram-free slice of Node: every counter and time
// component, but none of the latency distributions. Copying one is a few
// dozen words, so the metrics sampler and phase accountant can snapshot
// all nodes at every boundary without touching the 2 KB of histogram
// buckets a full Node copy would drag along.
type Snapshot struct {
	ReadFaults       int64
	WriteFaults      int64
	Invalidations    int64
	TwinsCreated     int64
	DiffsCreated     int64
	DiffsApplied     int64
	DiffPayloadBytes int64
	WriteNoticesSent int64
	WriteNoticesRecv int64
	HomeMigrations   int64
	Forwards         int64
	LeaseRenewals    int64
	LeaseExpiries    int64
	TimestampJumps   int64
	LockAcquires     int64
	BarrierEntries   int64

	Compute      sim.Time
	ReadStall    sim.Time
	WriteStall   sim.Time
	LockStall    sim.Time
	BarrierStall sim.Time
	FlushTime    sim.Time
	Stolen       sim.Time
}

// Snap copies the histogram-free fields of n into a Snapshot.
func (n *Node) Snap() Snapshot {
	return Snapshot{
		ReadFaults:       n.ReadFaults,
		WriteFaults:      n.WriteFaults,
		Invalidations:    n.Invalidations,
		TwinsCreated:     n.TwinsCreated,
		DiffsCreated:     n.DiffsCreated,
		DiffsApplied:     n.DiffsApplied,
		DiffPayloadBytes: n.DiffPayloadBytes,
		WriteNoticesSent: n.WriteNoticesSent,
		WriteNoticesRecv: n.WriteNoticesRecv,
		HomeMigrations:   n.HomeMigrations,
		Forwards:         n.Forwards,
		LeaseRenewals:    n.LeaseRenewals,
		LeaseExpiries:    n.LeaseExpiries,
		TimestampJumps:   n.TimestampJumps,
		LockAcquires:     n.LockAcquires,
		BarrierEntries:   n.BarrierEntries,
		Compute:          n.Compute,
		ReadStall:        n.ReadStall,
		WriteStall:       n.WriteStall,
		LockStall:        n.LockStall,
		BarrierStall:     n.BarrierStall,
		FlushTime:        n.FlushTime,
		Stolen:           n.Stolen,
	}
}

// Sub subtracts prev from s field-wise, in place (deltas over an interval).
func (s *Snapshot) Sub(prev *Snapshot) {
	s.ReadFaults -= prev.ReadFaults
	s.WriteFaults -= prev.WriteFaults
	s.Invalidations -= prev.Invalidations
	s.TwinsCreated -= prev.TwinsCreated
	s.DiffsCreated -= prev.DiffsCreated
	s.DiffsApplied -= prev.DiffsApplied
	s.DiffPayloadBytes -= prev.DiffPayloadBytes
	s.WriteNoticesSent -= prev.WriteNoticesSent
	s.WriteNoticesRecv -= prev.WriteNoticesRecv
	s.HomeMigrations -= prev.HomeMigrations
	s.Forwards -= prev.Forwards
	s.LeaseRenewals -= prev.LeaseRenewals
	s.LeaseExpiries -= prev.LeaseExpiries
	s.TimestampJumps -= prev.TimestampJumps
	s.LockAcquires -= prev.LockAcquires
	s.BarrierEntries -= prev.BarrierEntries
	s.Compute -= prev.Compute
	s.ReadStall -= prev.ReadStall
	s.WriteStall -= prev.WriteStall
	s.LockStall -= prev.LockStall
	s.BarrierStall -= prev.BarrierStall
	s.FlushTime -= prev.FlushTime
	s.Stolen -= prev.Stolen
}

// AddTo accumulates s into dst field-wise.
func (s *Snapshot) AddTo(dst *Snapshot) {
	dst.ReadFaults += s.ReadFaults
	dst.WriteFaults += s.WriteFaults
	dst.Invalidations += s.Invalidations
	dst.TwinsCreated += s.TwinsCreated
	dst.DiffsCreated += s.DiffsCreated
	dst.DiffsApplied += s.DiffsApplied
	dst.DiffPayloadBytes += s.DiffPayloadBytes
	dst.WriteNoticesSent += s.WriteNoticesSent
	dst.WriteNoticesRecv += s.WriteNoticesRecv
	dst.HomeMigrations += s.HomeMigrations
	dst.Forwards += s.Forwards
	dst.LeaseRenewals += s.LeaseRenewals
	dst.LeaseExpiries += s.LeaseExpiries
	dst.TimestampJumps += s.TimestampJumps
	dst.LockAcquires += s.LockAcquires
	dst.BarrierEntries += s.BarrierEntries
	dst.Compute += s.Compute
	dst.ReadStall += s.ReadStall
	dst.WriteStall += s.WriteStall
	dst.LockStall += s.LockStall
	dst.BarrierStall += s.BarrierStall
	dst.FlushTime += s.FlushTime
	dst.Stolen += s.Stolen
}
