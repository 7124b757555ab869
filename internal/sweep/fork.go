package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
)

// FaultVariant names one fault plan of a fault grid. A sweep with a grid
// attached (Options.FaultGrid) runs every matrix point once per variant;
// a nil Plan is the healthy-machine member of the grid.
type FaultVariant struct {
	Name string
	Plan *faults.Plan
}

// planFor resolves the fault plan one point runs under: its grid variant
// when the point carries a Fault name, the sweep-wide plan otherwise.
func (e *Engine) planFor(k Key) (*faults.Plan, error) {
	if k.Fault == "" || k.Sequential {
		return e.opts.Config.Faults, nil
	}
	for _, v := range e.opts.FaultGrid {
		if v.Name == k.Fault {
			return v.Plan, nil
		}
	}
	return nil, fmt.Errorf("sweep: %s: no fault variant %q in the grid", k, k.Fault)
}

// forkEpoch decides whether prefix sharing is on and, if so, the barrier
// epoch at which every shared prefix is cut: the earliest start barrier of
// the grid's gated plans. Up to that epoch all variants of a prefix group
// are byte-identical (plans are dormant until their start barrier), so one
// fault-free prefix run stands in for all of them. Returns 0 when forking
// is off or cannot help: fewer than two forkable variants, an engine-wide
// sharing profiler (checkpoints don't carry it), or no gated plan at all.
func (e *Engine) forkEpoch() int {
	if !e.opts.Fork || len(e.opts.FaultGrid) < 2 || e.opts.Config.ShareProfile {
		return 0
	}
	epoch, forkable := 0, 0
	for _, v := range e.opts.FaultGrid {
		if v.Plan == nil {
			forkable++ // the healthy variant forks from any prefix
			continue
		}
		sb := v.Plan.StartBarrier()
		if sb <= 0 {
			continue // ungated plans diverge from time zero: flat only
		}
		forkable++
		if epoch == 0 || sb < epoch {
			epoch = sb
		}
	}
	if epoch == 0 || forkable < 2 {
		return 0
	}
	return epoch
}

// forkable reports whether one point can take the fork path at the given
// cut epoch. Sequential baselines and points whose plan is not gated at or
// after the cut always run flat.
func forkable(k Key, plan *faults.Plan, epoch int) bool {
	if k.Sequential || k.Fault == "" {
		return false
	}
	return plan == nil || plan.StartBarrier() >= epoch
}

// cpKey identifies one shared warmup prefix: the grid point with the fault
// dimension cleared, plus the barrier epoch of the cut.
type cpKey struct {
	Key
	Epoch int
}

// warmup is one shared warmup prefix, as the engine's prefix memo holds it.
type warmup struct {
	cp    *core.Checkpoint
	wall  time.Duration // host time the leader spent simulating the prefix
	forks atomic.Int64  // runs served from this checkpoint
}

// computeForked runs one grid point through the shared-prefix path: obtain
// (or join the single computation of) the group's fault-free prefix
// checkpoint, then fork it under the point's own fault plan. The result is
// byte-identical to the flat run of the same configuration — that is the
// checkpoint machinery's contract, enforced by the core equivalence tests
// and the golden sweep tests.
func (e *Engine) computeForked(ctx context.Context, k Key, cfg core.Config, app core.App, epoch int) (*core.Result, error) {
	prefix := k
	prefix.Fault = ""
	w, err, _ := e.cps.Do(cpKey{Key: prefix, Epoch: epoch}, func() (*warmup, error) {
		start := time.Now()
		pcfg := cfg
		pcfg.Faults = nil
		m, err := core.NewMachine(pcfg)
		if err != nil {
			return nil, err
		}
		entry, err := apps.Get(k.App)
		if err != nil {
			return nil, err
		}
		// A fresh app instance: Setup mutates the app, and the prefix can
		// run concurrently with flat-path runs holding the caller's.
		cp, err := m.RunToBarrier(ctx, entry.New(e.opts.Size), epoch)
		if err != nil {
			return nil, err
		}
		return &warmup{cp: cp, wall: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunFromCheckpoint(ctx, w.cp, app)
	if err != nil {
		return nil, err
	}
	w.forks.Add(1)
	if forkedHook != nil {
		forkedHook(res)
	}
	return e.checked(k, app, res)
}

// forkedHook, when non-nil, sees every forked result before it is checked.
var forkedHook func(*core.Result)

// ForkStats summarizes what prefix sharing bought one engine: how many
// distinct warmup prefixes were simulated, how many runs forked from them,
// and an estimate of the warmup re-simulation wall time avoided (each run
// beyond a prefix's first would have re-simulated that prefix flat). The
// other two count the grid points Options.Fork did not serve: FlatRuns
// were not eligible (an ungated plan, a grid that cannot fork at all),
// FailedForks had their cut refused (core.ErrNotResumable) and re-ran flat.
type ForkStats struct {
	Prefixes    int
	ForkedRuns  int
	SavedWall   time.Duration
	FlatRuns    int
	FailedForks int
}

// ForkStats reports the engine's prefix-sharing counters so far.
func (e *Engine) ForkStats() ForkStats {
	s := ForkStats{FlatRuns: int(e.flatRuns.Load()), FailedForks: int(e.failedForks.Load())}
	e.cps.each(func(w *warmup) {
		forks := int(w.forks.Load())
		s.Prefixes++
		s.ForkedRuns += forks
		if forks > 1 {
			s.SavedWall += w.wall * time.Duration(forks-1)
		}
	})
	return s
}
