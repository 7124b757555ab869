package core

import (
	"context"
	"errors"
	"fmt"

	"dsmsim/internal/critpath"
	"dsmsim/internal/mem"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/synch"
)

// ErrNotResumable reports a checkpoint/fork request that cannot be honored:
// a configuration a checkpoint does not carry, a cut with work still in
// flight or inside a phase, a run that ends before its cut, or an app that
// does not resume from its epoch (see App). Test with errors.Is.
var ErrNotResumable = errors.New("core: run cannot be checkpointed/forked")

// Checkpoint is a complete, self-contained deep snapshot of a run cut at a
// barrier epoch: the quiescent instant when the last node has arrived and
// no release has been sent — every proc blocked, the event queue empty,
// nothing in flight. One checkpoint can seed any number of forked runs
// (every restore re-clones), which is what lets a sweep run a shared warmup
// prefix once and fork it per grid point.
type Checkpoint struct {
	app   string
	sig   runSig
	epoch int
	now   sim.Time
	seq   uint64

	spaces     []mem.SpaceState
	stats      []stats.Node
	clocks     *proto.ClockState
	eps        []network.EndpointState
	links      *network.LinkState
	homes      *proto.Homes
	log        *proto.Log
	protoState any
	sy         *synch.State
	writers    []proto.Copyset
	phases     *metrics.PhaseState
	sampler    *metrics.SamplerState
	crit       *critpath.State

	stolen    []sim.Time
	barStart  []sim.Time
	barFlush0 []sim.Time

	injCursor *uint64
}

// App returns the application name the checkpoint was captured from.
func (cp *Checkpoint) App() string { return cp.app }

// Epoch returns the barrier epoch the checkpoint was cut at.
func (cp *Checkpoint) Epoch() int { return cp.epoch }

// Now returns the virtual time of the cut.
func (cp *Checkpoint) Now() sim.Time { return cp.now }

// runSig pins the configuration dimensions a checkpoint bakes in. A fork
// must match all of them; only the fault plan (and the virtual-time limit)
// may differ between the capturing run and its forks.
type runSig struct {
	Nodes               int
	BlockSize           int
	Protocol            string
	Notify              network.Notify
	StaticHomes         bool
	SoftwareAccessCheck sim.Time
	SampleEvery         sim.Time
}

func sigOf(cfg *Config) runSig {
	return runSig{
		Nodes:               cfg.Nodes,
		BlockSize:           cfg.BlockSize,
		Protocol:            cfg.Protocol,
		Notify:              cfg.Notify,
		StaticHomes:         cfg.StaticHomes,
		SoftwareAccessCheck: cfg.SoftwareAccessCheck,
		SampleEvery:         cfg.SampleEvery,
	}
}

// checkpointable rejects configurations whose side state a checkpoint does
// not carry (sharing profiles) or that never reach a global barrier
// (sequential baselines). Tracing is fork-compatible: the prefix run
// flushes its trace at the cut and each fork writes its own suffix stream,
// so concatenating prefix and suffix reproduces the flat run's trace.
func checkpointable(cfg *Config) error {
	switch {
	case cfg.Sequential:
		return fmt.Errorf("%w: sequential baseline", ErrNotResumable)
	case cfg.ShareProfile:
		return fmt.Errorf("%w: sharing profiler attached", ErrNotResumable)
	}
	return nil
}

// compatible checks that cfg can resume this checkpoint.
func (cp *Checkpoint) compatible(cfg *Config, appName string) error {
	if err := checkpointable(cfg); err != nil {
		return err
	}
	if appName != cp.app {
		return fmt.Errorf("%w: checkpoint is of %q, run is of %q", ErrNotResumable, cp.app, appName)
	}
	if sig := sigOf(cfg); sig != cp.sig {
		return fmt.Errorf("%w: config %+v differs from checkpoint %+v", ErrNotResumable, sig, cp.sig)
	}
	if (cp.crit != nil) != cfg.CritPath {
		return fmt.Errorf("%w: critical-path profiling differs (checkpoint %v, run %v)",
			ErrNotResumable, cp.crit != nil, cfg.CritPath)
	}
	return nil
}

// RunToBarrier runs the application until barrier epoch k (the k-th global
// barrier) completes and captures a checkpoint at that instant instead of
// releasing it. The machine's fault plan, if any, must not have started by
// epoch k — the canonical use runs the prefix entirely fault-free, making
// the checkpoint valid for any start-gated fault variant.
func (m *Machine) RunToBarrier(ctx context.Context, app App, k int) (*Checkpoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: RunToBarrier epoch %d (want >= 1)", k)
	}
	if err := checkpointable(&m.cfg); err != nil {
		return nil, err
	}
	r, err := m.buildRun(ctx, app, nil)
	if err != nil {
		return nil, err
	}
	r.captureEpoch = k
	r.sy.OnBarrierFull = r.barrierHook
	return r.runToCapture(k)
}

// RunFromCheckpoint resumes a run from cp under this machine's config. The
// config must match cp on every dimension but the fault plan and limit; a
// fault plan must be start-gated (start=K, K >= cp.Epoch()) so the forked
// run is byte-identical to a flat run of the same config. The app instance
// must be equivalent to the one cp was captured from (same constructor
// arguments) and resume through Ctx.Phases.
func (m *Machine) RunFromCheckpoint(ctx context.Context, cp *Checkpoint, app App) (*Result, error) {
	r, err := m.buildRun(ctx, app, cp)
	if err != nil {
		return nil, err
	}
	r.releaseFromCut()
	return r.finish(r.engine.Run())
}

// RunToBarrierFrom resumes from cp and cuts again at the later barrier
// epoch k, returning the new checkpoint. With RunToBarrier it gives the
// equivalence oracle: for any cut k and any later epoch e, forking at k and
// cutting at e must produce a checkpoint whose Digest equals a fresh run
// cut at e.
func (m *Machine) RunToBarrierFrom(ctx context.Context, cp *Checkpoint, app App, k int) (*Checkpoint, error) {
	if k <= cp.epoch {
		return nil, fmt.Errorf("core: RunToBarrierFrom epoch %d not after checkpoint epoch %d", k, cp.epoch)
	}
	r, err := m.buildRun(ctx, app, cp)
	if err != nil {
		return nil, err
	}
	r.captureEpoch = k
	r.sy.OnBarrierFull = r.barrierHook
	r.releaseFromCut()
	return r.runToCapture(k)
}

// releaseFromCut replays the suppressed barrier release of the checkpoint's
// cut. The restored critical-path context is the captured barrier-arrive
// service record (the release was cut mid-handler), so the replayed release
// messages chain from it exactly as the flat run's do; the context is
// cleared afterwards, mirroring the flat run's handler return.
func (r *run) releaseFromCut() {
	r.sy.ReleaseBarrier()
	if r.crit != nil {
		r.crit.EndHandler()
	}
}

// runToCapture drives the engine until the capture hook cuts the run. The
// checkpoint deep-copies the spaces and nobody ever sees a prefix run's
// master image, so both go back to their pools however the run ends.
func (r *run) runToCapture(k int) (*Checkpoint, error) {
	runErr := r.engine.Run()
	defer r.release(false)
	if r.err != nil {
		return nil, r.err
	}
	if r.cp == nil {
		if runErr != nil {
			if ctxErr := r.ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, r.runError(runErr)
		}
		return nil, fmt.Errorf("%w: %s finished before barrier epoch %d", ErrNotResumable, r.info.Name, k)
	}
	if err := r.tr.Flush(); err != nil { // nil-safe; completes the prefix's trace stream at the cut
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	return r.cp, nil
}

// barrierHook fires inside the barrier handler the instant the last node
// arrives (engine context; see synch.Sync.OnBarrierFull). It arms a
// start-gated fault plan at its start epoch, and at the capture epoch it
// snapshots the run and stops the engine, suppressing the release.
func (r *run) barrierHook(epoch int) bool {
	if r.inj != nil && !r.inj.Started() && epoch == r.inj.StartBarrier() {
		// Activation order matters and matches the forked path: the wire
		// rules attach before the release messages are sent, so the
		// releases themselves already travel over the faulty network.
		r.net.ActivateFaults()
		r.inj.Activate()
	}
	if epoch == r.captureEpoch {
		r.cp, r.err = r.capture(epoch)
		r.engine.Stop()
		return true
	}
	return false
}

// capture deep-snapshots every layer at the barrier cut. Engine context,
// with the release suppressed: all procs blocked in the barrier. A cut with
// events in flight (an Unlock's release, under sc, dc and tlc) or inside a
// phase is refused, not drained.
func (r *run) capture(epoch int) (*Checkpoint, error) {
	if n := r.engine.PendingEvents(); n != 0 {
		return nil, fmt.Errorf("%w: checkpoint at epoch %d: %d events still in flight", ErrNotResumable, epoch, n)
	}
	for i := range r.nodes {
		if r.nodes[i].inPhase {
			return nil, fmt.Errorf("%w: checkpoint at epoch %d: node %d is in a barrier inside a phase", ErrNotResumable, epoch, i)
		}
	}
	ps, err := r.p.CaptureState()
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint at epoch %d: %w", ErrNotResumable, epoch, err)
	}
	cp := &Checkpoint{
		app:        r.info.Name,
		sig:        sigOf(&r.cfg),
		epoch:      epoch,
		now:        r.engine.Now(),
		seq:        r.engine.Seq(),
		homes:      r.env.Homes.Clone(),
		protoState: ps,
		sy:         r.sy.CaptureState(),
		links:      r.net.CaptureLinks(),
		phases:     r.phases.CaptureState(),
	}
	if r.env.Log != nil {
		// Log and VCs exist only for the clock-carrying protocols (see
		// proto.Meta.NeedsClocks); cp.log and cp.clocks are nil otherwise.
		cp.log = r.env.Log.Clone()
		cp.clocks = proto.CaptureClocks(r.env.VCs)
	}
	for i := 0; i < r.cfg.Nodes; i++ {
		cp.spaces = append(cp.spaces, r.env.Spaces[i].State())
		cp.stats = append(cp.stats, *r.env.Stats[i])
		eps, err := r.net.Endpoint(i).CaptureState()
		if err != nil {
			return nil, fmt.Errorf("%w: checkpoint at epoch %d, node %d: %w", ErrNotResumable, epoch, i, err)
		}
		cp.eps = append(cp.eps, eps)
		n := &r.nodes[i]
		cp.stolen = append(cp.stolen, n.stolen)
		cp.barStart = append(cp.barStart, n.barStart)
		cp.barFlush0 = append(cp.barFlush0, n.barFlush0)
	}
	cp.writers = proto.CloneSets(r.writers)
	if r.sampler != nil {
		cp.sampler = r.sampler.CaptureState()
	}
	if r.inj != nil {
		c := r.inj.Cursor()
		cp.injCursor = &c
	}
	if r.crit != nil {
		cp.crit = r.crit.CaptureState()
	}
	return cp, nil
}

// restore applies cp onto the freshly built (but not yet run) simulation.
// Everything is re-cloned out of the checkpoint, so cp remains valid for
// further forks.
func (r *run) restore(cp *Checkpoint) error {
	if r.inj != nil {
		if sb := r.inj.StartBarrier(); sb == 0 || sb < cp.epoch {
			return fmt.Errorf("%w: fault plan must be gated with start=K, K >= %d (the checkpoint epoch); have start=%d",
				ErrNotResumable, cp.epoch, sb)
		}
		if cp.injCursor != nil {
			r.inj.SetCursor(*cp.injCursor)
		}
		if r.inj.StartBarrier() == cp.epoch {
			// The plan arms exactly at the cut: attach before the caller
			// replays the barrier release, matching the flat run where the
			// barrier hook activates before releaseBarrier sends.
			r.net.ActivateFaults()
			r.inj.Activate()
		}
	}
	r.env.Homes.RestoreFrom(cp.homes)
	if r.env.Log != nil {
		r.env.Log.RestoreFrom(cp.log)
		proto.RestoreClocks(r.env.VCs, cp.clocks)
	}
	if err := r.p.RestoreState(cp.protoState); err != nil {
		return err
	}
	r.sy.RestoreState(cp.sy)
	r.net.RestoreLinks(cp.links)
	for i := 0; i < r.cfg.Nodes; i++ {
		r.env.Spaces[i].Restore(cp.spaces[i])
		*r.env.Stats[i] = cp.stats[i]
		r.net.Endpoint(i).RestoreState(cp.eps[i])
	}
	for b := range r.writers {
		r.writers[b] = cp.writers[b].Clone()
	}
	if r.sampler != nil {
		r.sampler.RestoreState(cp.sampler)
	}
	r.phases.RestoreState(cp.phases)
	if r.crit != nil {
		r.crit.RestoreState(cp.crit)
	}
	return nil
}

// Digest folds every simulation-visible field of the checkpoint into one
// FNV-1a value. Two checkpoints of equivalent machine states — however they
// were reached — digest equal; the state-equivalence tests use this as the
// fork-correctness oracle.
func (cp *Checkpoint) Digest() uint64 {
	d := proto.NewDigest()
	d.Int(cp.epoch)
	d.I64(int64(cp.now))
	d.U64(cp.seq)
	for i := range cp.spaces {
		cp.spaces[i].AddToDigest(d)
		digestStats(d, &cp.stats[i])
		ep := &cp.eps[i]
		d.I64(int64(ep.BusyUntil))
		d.I64(int64(ep.HoldoffUntil))
		d.I64(int64(ep.SvcAt))
		d.I64(ep.Stats.MsgsSent)
		d.I64(ep.Stats.BytesSent)
		d.I64(ep.Stats.Retransmits)
		d.I64(ep.Stats.WireDrops)
		d.I64(int64(cp.stolen[i]))
		d.I64(int64(cp.barStart[i]))
		d.I64(int64(cp.barFlush0[i]))
	}
	cp.links.Each(func(src, first int, at []sim.Time) {
		d.Int(src)
		d.Int(first)
		for _, t := range at {
			d.I64(int64(t))
		}
	})
	cp.homes.AddToDigest(d)
	if cp.log != nil {
		cp.log.AddToDigest(d)
		cp.clocks.AddToDigest(d)
	}
	cp.sy.AddToDigest(d)
	if dg, ok := cp.protoState.(proto.Digestable); ok {
		dg.AddToDigest(d)
	}
	for i := range cp.writers {
		cp.writers[i].AddToDigest(d)
	}
	return d.Sum()
}

// digestStats folds a node's counters, time components and latency-
// distribution totals into d.
func digestStats(d *proto.Digest, n *stats.Node) {
	s := n.Snap()
	for _, v := range [...]int64{
		s.ReadFaults, s.WriteFaults, s.Invalidations, s.TwinsCreated,
		s.DiffsCreated, s.DiffsApplied, s.DiffPayloadBytes,
		s.WriteNoticesSent, s.WriteNoticesRecv, s.HomeMigrations,
		s.Forwards, s.LeaseRenewals, s.LeaseExpiries, s.TimestampJumps,
		s.LockAcquires, s.BarrierEntries,
		int64(s.Compute), int64(s.ReadStall), int64(s.WriteStall),
		int64(s.LockStall), int64(s.BarrierStall), int64(s.FlushTime),
		int64(s.Stolen),
	} {
		d.I64(v)
	}
	for _, h := range [...]*stats.Histogram{
		&n.ReadFaultTime, &n.WriteFaultTime, &n.LockWait, &n.BarrierWait,
	} {
		d.I64(h.Count)
		d.I64(h.Sum)
	}
}
