package core

import (
	"fmt"

	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
	"dsmsim/internal/view"
)

// Ctx is the interface applications program against on each node: typed
// reads and writes of the shared address space (access-checked at coherence
// block granularity, like the Typhoon-0 hardware), explicit computation
// time, and synchronization.
//
// Span accessors return slices aliasing the node's local copy of the
// shared space; they run at native speed. A span is valid ONLY until the
// next Ctx call — any DSM operation (including another access) may fault,
// yield to the simulator, and let the protocol rewrite or invalidate the
// underlying block. Re-acquire spans after every Ctx call.
type Ctx struct {
	n *Node
}

// ID returns this node's id in [0, NP).
func (c *Ctx) ID() int { return c.n.id }

// NP returns the number of nodes.
func (c *Ctx) NP() int { return c.n.run.cfg.Nodes }

// Protocol returns the running protocol's name. Applications that need
// extra synchronization to be release-consistent (§5.2: Barnes) use this to
// select their SC or RC variant, exactly as the paper ran different
// binaries per protocol.
func (c *Ctx) Protocol() string { return c.n.run.cfg.Protocol }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.n.engine.Now() }

// BlockSize returns the coherence granularity in bytes. Applications use
// it to chunk writable spans at block boundaries: a write span covering
// several contended blocks needs them all simultaneously, which real
// per-store programs never require.
func (c *Ctx) BlockSize() int { return c.n.space.BlockSize() }

// Compute advances virtual time by d of user computation. Under polling,
// the application's backedge instrumentation dilates this (§5.4); protocol
// service stolen by incoming messages extends it further.
func (c *Ctx) Compute(d sim.Time) {
	c.n.settleChecks()
	if d <= 0 {
		return
	}
	n := c.n
	if s := n.scale; s != nil {
		// What-if re-simulation: rescale the requested work before the
		// dilations that multiply onto it.
		if d = s.ComputeCost(d); d <= 0 {
			return
		}
	}
	if n.dilation > 0 {
		d += sim.Time(float64(d) * n.dilation)
	}
	total := d
	if n.faults != nil {
		// A straggler window dilates this node's computation: the whole
		// Compute call is scaled by the factor in force when it starts,
		// modeling a slowed clock rather than re-slicing mid-call.
		if f := n.faults.Dilation(n.id, n.engine.Now()); f > 1 {
			total = sim.Time(float64(d) * f)
		}
	}
	n.stats.Compute += total
	start := n.engine.Now()
	target := start + total
	for {
		n.proc.Sleep(target - n.engine.Now())
		if n.stolen == 0 {
			break
		}
		target += n.stolen
		n.stolen = 0
	}
	if ct := n.crit; ct != nil {
		ct.ComputeSeg(n.id, start, d, total, n.engine.Now())
	}
}

// access validates the blocks covering [addr, addr+size) and returns the
// bytes from the local copy. The scan restarts until one complete pass
// finds every block valid: resolving a fault yields to the simulator, and
// an already-validated block can be downgraded or invalidated meanwhile.
// Only a fault-free pass — which cannot yield — guarantees the whole span
// is simultaneously accessible when it is returned.
func (c *Ctx) access(addr, size int, write bool) []byte {
	n := c.n
	sp := n.space
	if size == 0 {
		// Empty spans arise when a node's partition of the data is empty
		// (more nodes than rows); they touch no block and cost nothing.
		return nil
	}
	first, last := sp.BlocksIn(addr, size)
	if n.run.cfg.SoftwareAccessCheck > 0 {
		n.checkDebt += int64(last - first + 1)
	}
	// Fast path: the previous fault-free pass validated [vFirst, vLast]
	// under tag version vVer. If no tag anywhere has changed since and the
	// requested span is within that range (at equal or weaker access), the
	// scan must succeed — return immediately. holdBoost is already zero:
	// every clean pass clears it.
	if n.vOK && sp.Ver() == n.vVer && first >= n.vFirst && last <= n.vLast &&
		(n.vWrite || !write) {
		if pr := n.prof; pr != nil {
			pr.Access(n.id, addr, size, write)
		}
		return sp.Bytes(addr, size)
	}
	if n.prof != nil {
		// Remember the span so any fault below can be attributed to the
		// exact bytes that missed (Node.fault reads it back).
		n.profAddr, n.profSize = addr, size
	}
	for pass := 0; ; pass++ {
		clean := true
		for b := first; b <= last; b++ {
			for !sp.Tag(b).Allows(write) {
				n.fault(b, write)
				clean = false
			}
		}
		if clean {
			n.holdBoost = 0
			n.vFirst, n.vLast, n.vWrite = first, last, write
			n.vVer, n.vOK = sp.Ver(), true
			if pr := n.prof; pr != nil {
				// Record only completed passes: a write publishes its
				// sectors as stale everywhere else exactly once, after
				// the access is actually permitted.
				pr.Access(n.id, addr, size, write)
			}
			return sp.Bytes(addr, size)
		}
		if pass > 0 {
			// A block granted earlier in this access was stolen while a
			// later one was being fetched: escalate the forward-progress
			// window so the next grants survive together.
			n.holdBoost++
		}
	}
}

// ReadF64 reads the float64 at addr.
func (c *Ctx) ReadF64(addr int) float64 { return view.F64s(c.access(addr, 8, false))[0] }

// WriteF64 writes v at addr.
func (c *Ctx) WriteF64(addr int, v float64) { view.F64s(c.access(addr, 8, true))[0] = v }

// ReadI32 reads the int32 at addr.
func (c *Ctx) ReadI32(addr int) int32 { return view.I32s(c.access(addr, 4, false))[0] }

// WriteI32 writes v at addr.
func (c *Ctx) WriteI32(addr int, v int32) { view.I32s(c.access(addr, 4, true))[0] = v }

// ReadI64 reads the int64 at addr.
func (c *Ctx) ReadI64(addr int) int64 { return view.I64s(c.access(addr, 8, false))[0] }

// WriteI64 writes v at addr.
func (c *Ctx) WriteI64(addr int, v int64) { view.I64s(c.access(addr, 8, true))[0] = v }

// BytesR returns a read-only span of size bytes at addr.
func (c *Ctx) BytesR(addr, size int) []byte { return c.access(addr, size, false) }

// BytesW returns a writable span of size bytes at addr.
func (c *Ctx) BytesW(addr, size int) []byte { return c.access(addr, size, true) }

// F64sR returns a read-only span of count float64s starting at addr.
func (c *Ctx) F64sR(addr, count int) []float64 { return view.F64s(c.access(addr, count*8, false)) }

// F64sW returns a writable span of count float64s starting at addr.
func (c *Ctx) F64sW(addr, count int) []float64 { return view.F64s(c.access(addr, count*8, true)) }

// I32sR returns a read-only span of count int32s starting at addr.
func (c *Ctx) I32sR(addr, count int) []int32 { return view.I32s(c.access(addr, count*4, false)) }

// I32sW returns a writable span of count int32s starting at addr.
func (c *Ctx) I32sW(addr, count int) []int32 { return view.I32s(c.access(addr, count*4, true)) }

// I64sR returns a read-only span of count int64s starting at addr.
func (c *Ctx) I64sR(addr, count int) []int64 { return view.I64s(c.access(addr, count*8, false)) }

// I64sW returns a writable span of count int64s starting at addr.
func (c *Ctx) I64sW(addr, count int) []int64 { return view.I64s(c.access(addr, count*8, true)) }

// Lock acquires the given lock (blocking). Locks are acquire operations in
// the release-consistency sense: stale copies named by incoming write
// notices are invalidated before Lock returns.
func (c *Ctx) Lock(id int) {
	if id < 0 {
		panic(fmt.Sprintf("core: bad lock id %d", id))
	}
	n := c.n
	n.settleChecks()
	start := n.engine.Now()
	n.inRuntime = true
	n.sync.Acquire(n.id, id)
	n.inRuntime = false
	elapsed := n.engine.Now() - start
	n.stats.LockStall += elapsed
	n.stats.LockWait.ObserveTime(elapsed)
	if tr := n.tracer; tr != nil {
		tr.Span(n.id, trace.CatSynch, "lock", start, trace.A("id", int64(id)))
	}
}

// Unlock releases the lock: a release operation (HLRC flushes diffs here).
func (c *Ctx) Unlock(id int) {
	n := c.n
	start := n.engine.Now()
	// HLRC's release-time diff flush runs inside this call and charges
	// FlushTime itself; subtract its delta so the flush is not counted
	// twice and the breakdown components stay disjoint.
	flush0 := n.stats.FlushTime
	n.inRuntime = true
	n.sync.Release(n.id, id)
	n.inRuntime = false
	n.stats.LockStall += n.engine.Now() - start - (n.stats.FlushTime - flush0)
	if tr := n.tracer; tr != nil {
		tr.Span(n.id, trace.CatSynch, "release", start, trace.A("id", int64(id)))
	}
}

// Phases runs phase(e) and then Barrier for each epoch e from the node's
// start epoch up to n: 0 for a fresh node, the checkpoint's epoch for a
// restored one. A phase that calls Barrier itself spans those epochs too,
// and such a barrier is no cut point: the phase's private state crosses it.
func (c *Ctx) Phases(n int, phase func(e int)) {
	nd := c.n
	nd.resuming = false
	for e := nd.phases.Epoch(nd.id); e < n; e = nd.phases.Epoch(nd.id) {
		nd.inPhase = true
		phase(e)
		nd.inPhase = false
		c.Barrier()
	}
}

// Barrier blocks until every node has entered it. It is both a release and
// an acquire.
func (c *Ctx) Barrier() {
	n := c.n
	if n.resuming {
		n.refuse("entered a barrier")
	}
	n.settleChecks()
	// Entry time and already-booked flush time live on the Node (not in
	// locals) so a checkpoint cut inside the barrier can capture them; the
	// forked continuation then books the identical stall on resume.
	n.barStart = n.engine.Now()
	n.barFlush0 = n.stats.FlushTime // see Unlock: the entry-side flush charges itself
	n.inRuntime = true
	n.sync.Barrier(n.id)
	n.inRuntime = false
	n.barrierResumed()
}

// barrierResumed books the stall, cuts the phase and traces the barrier
// span when a barrier release lands — the tail of Ctx.Barrier, shared
// with the checkpoint-restore continuation (which resumes a node exactly
// here, so a forked run's trace shows the cut barrier like a flat one).
func (n *Node) barrierResumed() {
	elapsed := n.engine.Now() - n.barStart
	n.stats.BarrierStall += elapsed - (n.stats.FlushTime - n.barFlush0)
	n.stats.BarrierWait.ObserveTime(elapsed)
	// A barrier return ends this node's current phase: cut the epoch with
	// the just-booked stall included. Pure bookkeeping, cannot yield.
	n.phases.Cut(n.id, n.engine.Now(), n.stats)
	if tr := n.tracer; tr != nil {
		tr.Span(n.id, trace.CatSynch, "barrier", n.barStart)
	}
}
