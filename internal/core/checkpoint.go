package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"dsmsim/internal/critpath"
	"dsmsim/internal/digest"
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
// (every restore copies), which is what lets a sweep run a shared warmup
// prefix once and fork it per grid point.
//
// Digest walks every field; those tagged `digest:"-"` are left out: the app
// name and config are checked by compatible, and the sampler's and the
// critical-path tracker's states feed only Result.Samples and
// Result.CritPath, which the fork tests compare with the flat run's
// directly.
type Checkpoint struct {
	app   string `digest:"-"`
	cfg   Config `digest:"-"` // the capturing run's, as pinned
	epoch int
	now   sim.Time
	seq   uint64

	spaces     []mem.SpaceState
	stats      []stats.Node
	clocks     []proto.Clock
	eps        []network.EndpointState
	links      *network.LinkState
	homes      *proto.Homes
	log        *proto.Log
	protoState any
	sy         *synch.State
	writers    []proto.Copyset
	phases     *metrics.PhaseState
	sampler    *metrics.SamplerState `digest:"-"`
	crit       *critpath.State       `digest:"-"`

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

// pinned is cfg as a checkpoint bakes it in: every field but those a fork
// may change — the fault plan (which restore requires to be start-gated at
// or after the cut), the virtual-time limit and the trace writer. The
// prefix flushes its trace at the cut and each fork writes its own suffix,
// so prefix and suffix concatenated are the flat run's trace.
func pinned(cfg Config) Config {
	cfg.Faults, cfg.Limit, cfg.Trace = nil, 0, nil
	return cfg
}

// compatible checks that cfg can resume this checkpoint: the same app, and
// a pinned config equal to the checkpoint's field by field, pointers (the
// what-if scaling) compared by the values they point to. A Config field
// added later is pinned without an edit here.
func (cp *Checkpoint) compatible(cfg *Config, appName string) error {
	if appName != cp.app {
		return fmt.Errorf("%w: checkpoint is of %q, run is of %q", ErrNotResumable, cp.app, appName)
	}
	fork := pinned(*cfg)
	want, got := reflect.ValueOf(&cp.cfg).Elem(), reflect.ValueOf(&fork).Elem()
	for i := range want.NumField() {
		w, g := want.Field(i), got.Field(i)
		if w.Kind() == reflect.Pointer && !w.IsNil() && !g.IsNil() {
			w, g = w.Elem(), g.Elem()
		}
		if !w.Equal(g) {
			return fmt.Errorf("%w: %s is %v, the checkpoint's %v", ErrNotResumable, want.Type().Field(i).Name, g, w)
		}
	}
	return nil
}

// RunToBarrier runs the application until barrier epoch k (the k-th global
// barrier) completes and captures a checkpoint at that instant instead of
// releasing it. The machine's fault plan, if any, must not have started by
// epoch k — the canonical use runs the prefix entirely fault-free, making
// the checkpoint valid for any start-gated fault variant. A sequential
// baseline never reaches a global barrier, and a checkpoint does not carry
// the sharing profiler's state: both are refused.
func (m *Machine) RunToBarrier(ctx context.Context, app App, k int) (*Checkpoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: RunToBarrier epoch %d (want >= 1)", k)
	}
	if m.cfg.Sequential || m.cfg.ShareProfile {
		return nil, fmt.Errorf("%w: sequential baseline or sharing profiler", ErrNotResumable)
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
// config must match cp on every field but the fault plan, the limit and the
// trace writers; a fault plan must be start-gated (start=K, K >= cp.Epoch())
// so the forked run is byte-identical to a flat run of the same config, and
// a what-if scaling must equal the checkpoint's by value. The app instance
// must be equivalent to the one cp was captured from (same constructor
// arguments) and resume through Ctx.Phases.
func (m *Machine) RunFromCheckpoint(ctx context.Context, cp *Checkpoint, app App) (*Result, error) {
	r, err := m.buildRun(ctx, app, cp)
	if err != nil {
		return nil, err
	}
	r.releaseFromCut()
	return r.finish(r.runEngine())
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

// runEngine runs the engine loop. A proc's panic unwinds out of Engine.Run
// past finish and release; the tracer is ended on its way, so no encoder
// outlives the run.
func (r *run) runEngine() error {
	returned := false
	defer func() {
		if !returned {
			r.tr.Close()
		}
	}()
	err := r.engine.Run()
	returned = true
	return err
}

// runToCapture drives the engine until the capture hook cuts the run. The
// checkpoint deep-copies the spaces and nobody ever sees a prefix run's
// master image, so both go back to their pools however the run ends; and
// release ends the tracer, so a refused capture's trace is written out to
// where its run stopped.
func (r *run) runToCapture(k int) (*Checkpoint, error) {
	runErr := r.runEngine()
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
		cfg:        pinned(r.cfg),
		epoch:      epoch,
		now:        r.engine.Now(),
		seq:        r.engine.Seq(),
		homes:      digest.Clone(r.env.Homes),
		protoState: ps,
		sy:         r.sy.CaptureState(),
		links:      r.net.CaptureLinks(),
		phases:     r.phases.CaptureState(),
	}
	if r.env.Log != nil {
		// Log and VCs exist only for the clock-carrying protocols (see
		// proto.Meta.NeedsClocks); cp.log and cp.clocks are nil otherwise.
		cp.log = digest.Clone(r.env.Log)
		digest.Copy(&cp.clocks, &r.env.VCs)
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
	digest.Copy(&cp.writers, &r.writers)
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
// Everything is copied out of the checkpoint, so cp remains valid for
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
	// The Env's Homes and Log are wired into every protocol, and the
	// writer sets are pooled: overwrite them in place.
	digest.Copy(r.env.Homes, cp.homes)
	digest.Copy(&r.writers, &cp.writers)
	if r.env.Log != nil {
		digest.Copy(r.env.Log, cp.log)
		digest.Copy(&r.env.VCs, &cp.clocks)
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
// FNV-1a value (digest.Of). Two checkpoints of equivalent machine states —
// however they were reached — digest equal; the state-equivalence tests use
// this as the fork-correctness oracle.
func (cp *Checkpoint) Digest() uint64 { return digest.Of(cp) }
