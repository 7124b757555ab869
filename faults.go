package dsmsim

import (
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
)

// FaultPlan is a validated, immutable-after-Start description of the
// failures to inject into a run: which links misbehave, how, and when.
// Build one from rule constructors:
//
//	plan := dsmsim.NewFaultPlan(
//	    dsmsim.Drop(0.01),                               // 1% uniform loss
//	    dsmsim.Partition(0, 1, t0, t1),                  // timed link cut
//	    dsmsim.Straggler(3, 2.5, 0, 0),                  // node 3 computes 2.5x slower
//	    dsmsim.FaultSeed(42))
//
// and attach it with Config.Faults or the WithFaults option. All faults
// are deterministic in virtual time: the plan's seed drives a private
// PRNG inside the single-threaded simulation, so identical plans
// reproduce runs bit-for-bit, and a nil or inactive plan is
// byte-identical to the fault-free machine. Wire faults (drops,
// duplicates, jitter, partitions) are absorbed by the network's
// ack/retransmission layer, so runs still complete and verify; their
// cost shows up in Result.Retransmits, Result.WireDrops,
// Result.Duplicates, Result.RetransmitLatency and execution time.
type FaultPlan = faults.Plan

// FaultRule is one injection rule of a FaultPlan.
type FaultRule = faults.Rule

// NewFaultPlan builds a plan from rules. Validation happens at
// NewMachine/Start time (and on demand via FaultPlan.Validate), so
// construction is infallible and chainable with FaultPlan.Add.
func NewFaultPlan(rules ...FaultRule) *FaultPlan { return faults.NewPlan(rules...) }

// Drop makes every link drop each frame independently with probability p
// in [0, 1].
func Drop(p float64) FaultRule { return faults.Drop(p) }

// DropLink overrides the drop probability on the directed link src→dst.
func DropLink(src, dst int, p float64) FaultRule { return faults.DropLink(src, dst, p) }

// Duplicate makes every delivered frame arrive twice with probability p;
// the receiver's dedup layer discards the copy (counted in
// Result.Duplicates).
func Duplicate(p float64) FaultRule { return faults.Duplicate(p) }

// Jitter adds a uniformly random extra delay in [0, d] to every frame
// and ack. The link layer's reorder buffer hides any resulting
// out-of-order arrival from the protocols.
func Jitter(d Time) FaultRule { return faults.Jitter(d) }

// Partition cuts both directions between nodes a and b for virtual time
// [from, to): every frame sent in the window is lost and later
// retransmitted. to must be greater than from.
func Partition(a, b int, from, to Time) FaultRule { return faults.Partition(a, b, from, to) }

// Straggler dilates node's compute time by factor (>= 1) during virtual
// time [from, to); to == 0 means until the end of the run. Overlapping
// windows multiply. Stragglers never touch the wire: a straggler-only
// plan keeps the network on its fault-free fast path.
func Straggler(node int, factor float64, from, to Time) FaultRule {
	return faults.Straggler(node, factor, from, to)
}

// FaultSeed sets the plan's PRNG seed (default 1). Different seeds give
// statistically independent fault sequences; the same seed replays the
// run bit-for-bit.
func FaultSeed(s uint64) FaultRule { return faults.Seed(s) }

// RetransmitTimeout overrides the base retransmission timeout the ack
// layer computes per message (useful to stress-test backoff).
func RetransmitTimeout(d Time) FaultRule { return faults.RTO(d) }

// StartAtBarrier gates the whole plan on the k-th global barrier
// (k >= 1): every rule is dormant — the machine byte-identical to a
// fault-free one — until all nodes have completed barrier k, and the
// fault PRNG starts consuming randomness only from that instant. Gated
// plans are what make checkpoint sharing possible: grid variants that
// agree before their start barriers can fork one common warmup prefix
// (see WithFork). Parse syntax: `start=K`.
func StartAtBarrier(k int) FaultRule { return faults.StartAtBarrier(k) }

// ParseFaults builds a plan from dsmrun's flag syntax (-faults, and each
// -fault-grid variant): comma-separated `drop=P`, `dup=P`, `jitter=DUR`,
// `rto=DUR`, `seed=N`, `start=K`, `partition=A-B@FROM:TO`,
// `linkdrop=A-B:P` and any number of
// `straggler=NODExFACTOR[@FROM:TO]` (durations are Go durations like 50us,
// or bare nanosecond integers), e.g. "drop=0.01,straggler=2x3@0:50ms".
func ParseFaults(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// Typed configuration errors, re-exported from the machine core: every
// rejection from NewMachine (and therefore Start, Run, RunApp, Sweep)
// wraps one of these, so callers branch with errors.Is instead of
// string-matching.
var (
	// ErrBadNodes reports a node count outside [1, 1024] (core.MaxNodes).
	ErrBadNodes = core.ErrBadNodes
	// ErrBadBlockSize reports a block size that is not a positive power of two.
	ErrBadBlockSize = core.ErrBadBlockSize
	// ErrNoProtocol reports a non-sequential config with no protocol named.
	ErrNoProtocol = core.ErrNoProtocol
	// ErrUnknownProtocol reports a protocol name the registry does not hold
	// (AllProtocols lists what it does).
	ErrUnknownProtocol = core.ErrUnknownProtocol
	// ErrBadFaultPlan wraps a fault-plan rule that fails validation; the
	// cause (one of the Err* below) is also matchable.
	ErrBadFaultPlan = core.ErrBadFaultPlan

	// ErrBadProbability reports a probability outside [0, 1].
	ErrBadProbability = faults.ErrBadProbability
	// ErrBadWindow reports a partition window with to <= from.
	ErrBadWindow = faults.ErrBadWindow
	// ErrBadNode reports a node index outside the configured cluster.
	ErrBadNode = faults.ErrBadNode
	// ErrBadFactor reports a straggler dilation factor below 1.
	ErrBadFactor = faults.ErrBadFactor
	// ErrBadDuration reports a negative jitter or timeout duration.
	ErrBadDuration = faults.ErrBadDuration
)
