package sweep

import (
	"fmt"
	"sync"
	"time"

	"context"

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
// cut epoch. Sequential baselines, non-resumable apps and points whose plan
// is not gated at or after the cut always run flat.
func (e *Engine) forkable(k Key, app core.App, plan *faults.Plan, epoch int) bool {
	if k.Sequential || k.Fault == "" {
		return false
	}
	if _, ok := app.(core.ResumableApp); !ok {
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

// computeForked runs one grid point through the shared-prefix path: obtain
// (or join the single computation of) the group's fault-free prefix
// checkpoint, then fork it under the point's own fault plan. The result is
// byte-identical to the flat run of the same configuration — that is the
// checkpoint machinery's contract, enforced by the core equivalence tests
// and the golden sweep tests.
func (e *Engine) computeForked(ctx context.Context, k Key, cfg core.Config, app core.App, epoch int) (*core.Result, error) {
	prefix := k
	prefix.Fault = ""
	cp, err := e.cps.Do(cpKey{Key: prefix, Epoch: epoch}, func() (*core.Checkpoint, error) {
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
		return m.RunToBarrier(ctx, entry.New(e.opts.Size), epoch)
	})
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunFromCheckpoint(ctx, cp, app)
	if err != nil {
		return nil, err
	}
	e.cps.addFork(cpKey{Key: prefix, Epoch: epoch})
	return e.checked(k, app, res)
}

// cpMemo is the checkpoint analog of Memo: a single-flight cache of shared
// warmup prefixes keyed by (prefix point, cut epoch). Checkpoints are
// retained for the engine's lifetime, like results — a later sweep over the
// same grid reuses them. Failure handling matches Memo: a failed leader's
// entry is forgotten and waiting followers retry with their own computation,
// so one cancelled sweep cannot poison another's prefixes.
type cpMemo struct {
	mu sync.Mutex
	m  map[cpKey]*cpEntry
	// Grid points computed flat while Options.Fork was on: flat ones were
	// never eligible, failed ones tried the fork path first.
	flat, failed int
}

type cpEntry struct {
	done chan struct{}
	cp   *core.Checkpoint
	err  error

	wall  time.Duration // host time the leader spent simulating the prefix
	forks int           // runs served from this checkpoint (guarded by cpMemo.mu)
}

// Do returns the memoized checkpoint for k, computing it with compute if
// needed.
func (m *cpMemo) Do(k cpKey, compute func() (*core.Checkpoint, error)) (*core.Checkpoint, error) {
	for {
		m.mu.Lock()
		if m.m == nil {
			m.m = map[cpKey]*cpEntry{}
		}
		if e, ok := m.m[k]; ok {
			m.mu.Unlock()
			<-e.done
			if e.err == nil {
				return e.cp, nil
			}
			continue // leader failed; its entry is gone — retry ourselves
		}
		e := &cpEntry{done: make(chan struct{})}
		m.m[k] = e
		m.mu.Unlock()

		start := time.Now()
		e.cp, e.err = compute()
		e.wall = time.Since(start)
		if e.err != nil {
			m.mu.Lock()
			delete(m.m, k)
			m.mu.Unlock()
		}
		close(e.done)
		return e.cp, e.err
	}
}

// addFork records that one run was served from checkpoint k.
func (m *cpMemo) addFork(k cpKey) {
	m.mu.Lock()
	if e, ok := m.m[k]; ok {
		e.forks++
	}
	m.mu.Unlock()
}

// addFlat records that one grid point ran flat with forking on, after a
// failed fork attempt or without one.
func (m *cpMemo) addFlat(failed bool) {
	m.mu.Lock()
	if failed {
		m.failed++
	} else {
		m.flat++
	}
	m.mu.Unlock()
}

// ForkStats summarizes what prefix sharing bought one engine: how many
// distinct warmup prefixes were simulated, how many runs forked from them,
// and an estimate of the warmup re-simulation wall time avoided (each run
// beyond a prefix's first would have re-simulated that prefix flat). The
// other two count the grid points Options.Fork did not serve: FlatRuns
// were not eligible (non-resumable app, ungated plan, a grid that cannot
// fork at all), FailedForks tried — the app finished before the cut, events
// were in flight at the barrier — and were re-run flat.
type ForkStats struct {
	Prefixes    int
	ForkedRuns  int
	SavedWall   time.Duration
	FlatRuns    int
	FailedForks int
}

// ForkStats reports the engine's prefix-sharing counters so far.
func (e *Engine) ForkStats() ForkStats {
	e.cps.mu.Lock()
	defer e.cps.mu.Unlock()
	s := ForkStats{FlatRuns: e.cps.flat, FailedForks: e.cps.failed}
	for _, ent := range e.cps.m {
		s.Prefixes++
		s.ForkedRuns += ent.forks
		if ent.forks > 1 {
			s.SavedWall += ent.wall * time.Duration(ent.forks-1)
		}
	}
	return s
}
