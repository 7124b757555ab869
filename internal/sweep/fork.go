package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

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

// planFor resolves the fault plan one point runs under: its own plan when
// it carries one, its grid variant when it carries a Fault name, the
// sweep-wide plan otherwise.
func (s *sweeper) planFor(k Key) (*faults.Plan, error) {
	switch {
	case k.Sequential || k.Faults == "" && k.Fault == "":
		return s.opts.Config.Faults, nil
	case k.Faults != "":
		return faults.Parse(k.Faults)
	}
	for _, v := range s.opts.FaultGrid {
		if v.Name == k.Fault {
			return v.Plan, nil
		}
	}
	return nil, fmt.Errorf("sweep: no fault variant %q in the grid", k.Fault)
}

// forkEpoch decides whether prefix sharing is on and, if so, the barrier
// epoch at which every shared prefix is cut: the earliest start barrier of
// the grid's gated plans. Up to that epoch all variants of a prefix group
// are byte-identical (plans are dormant until their start barrier), so one
// fault-free prefix run stands in for all of them. Returns 0 when forking
// is off or cannot help: fewer than two forkable variants, a sweep-wide
// sharing profiler (checkpoints don't carry it), or no gated plan at all.
func (s *sweeper) forkEpoch() int {
	if !s.opts.Fork || len(s.opts.FaultGrid) < 2 || s.opts.Config.ShareProfile {
		return 0
	}
	epoch, forkable := 0, 0
	for _, v := range s.opts.FaultGrid {
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
// cut epoch. Sequential baselines, points with a sharing profiler of their
// own (checkpoints don't carry it) and points whose plan is not gated at or
// after the cut always run flat.
func forkable(k Key, plan *faults.Plan, epoch int) bool {
	if k.Sequential || k.Fault == "" || k.ShareProfile {
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

// warmup is one shared warmup prefix, as the sweep's prefix memo holds it:
// a checkpoint, or the refusal of its cut (core.ErrNotResumable), which is
// retained so the group's other variants fall back to flat without
// simulating the prefix again.
type warmup struct {
	cp      *core.Checkpoint
	refusal error
	wall    time.Duration // host time the leader spent simulating the prefix
	forks   atomic.Int64  // runs served from this checkpoint
}

// computeForked runs one grid point through the shared-prefix path: obtain
// (or join the single computation of) the group's fault-free prefix
// checkpoint, then fork it under the point's own fault plan. The result is
// byte-identical to the flat run of the same configuration — that is the
// checkpoint machinery's contract, enforced by the core equivalence tests
// and the golden sweep tests. A prefix that fails fails every point of its
// group: the sweep has failed.
func (s *sweeper) computeForked(ctx context.Context, i int, app core.App) (*core.Result, error) {
	prefix := s.keys[i]
	prefix.Fault = ""
	w, err, _ := s.cps.Do(cpKey{Key: prefix, Epoch: s.epoch}, func() (*warmup, error) {
		start := time.Now()
		pcfg := s.cfgs[i]
		pcfg.Faults = nil
		m, err := core.NewMachine(pcfg)
		if err != nil {
			return nil, err
		}
		if prefixHook != nil {
			prefixHook()
		}
		// A fresh app instance: Setup mutates the app, and the prefix can
		// run concurrently with flat-path runs holding the caller's.
		cp, err := m.RunToBarrier(ctx, s.entries[i].New(s.opts.Size), s.epoch)
		if errors.Is(err, core.ErrNotResumable) {
			return &warmup{refusal: err}, nil
		}
		if err != nil {
			return nil, err
		}
		return &warmup{cp: cp, wall: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	if w.refusal != nil {
		return nil, w.refusal
	}
	m, err := core.NewMachine(s.cfgs[i])
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
	return s.checked(app, res)
}

// forkedHook, when non-nil, sees every forked result before it is checked,
// and prefixHook every prefix simulation as it starts.
var (
	forkedHook func(*core.Result)
	prefixHook func()
)

// ForkStats summarizes what prefix sharing bought one sweep: how many
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

// forkStats reports the sweep's prefix-sharing counters so far.
func (s *sweeper) forkStats() ForkStats {
	fs := ForkStats{FlatRuns: int(s.flatRuns.Load()), FailedForks: int(s.failedForks.Load())}
	s.cps.each(func(w *warmup) {
		if w.refusal != nil {
			return
		}
		forks := int(w.forks.Load())
		fs.Prefixes++
		fs.ForkedRuns += forks
		if forks > 1 {
			fs.SavedWall += w.wall * time.Duration(forks-1)
		}
	})
	return fs
}
