package dsmsim

import (
	"context"
	"fmt"

	"dsmsim/internal/sweep"
)

// SweepPoint identifies one run of a sweep: one point of the evaluation
// cross-product, or an application's sequential baseline.
type SweepPoint = sweep.Key

// SweepSpec describes a cross-product of runs: every listed application
// under every protocol × granularity × notification combination. Zero
// fields default to the paper's evaluation matrix: all bundled
// applications, the paper's three protocols, its four granularities,
// polling notification, 16 nodes, Small problem sizes, with sequential
// baselines included.
type SweepSpec struct {
	// Apps lists bundled application names (default: all twelve).
	Apps []string
	// Protocols lists protocol names (default: SC, SWLRC, HLRC).
	Protocols []string
	// Granularities lists coherence block sizes (default: 64…4096).
	Granularities []int
	// Notify lists notification mechanisms (default: Polling).
	Notify []Notify
	// Nodes is the cluster size (default: 16).
	Nodes int
	// Size selects problem scale (default: Small).
	Size SizeClass
	// SkipBaselines drops the per-app sequential baseline runs (and with
	// them SweepResult.Speedup).
	SkipBaselines bool
}

// SweepRun pairs one point with its result. The result carries the run's
// statistics and no Heap: a sweep verifies each run itself (WithVerify) and
// recycles the run's master image, so holding a large sweep's results does
// not hold its images.
type SweepRun struct {
	Point  SweepPoint
	Result *Result
}

// ForkStats summarizes what WithFork bought a sweep: distinct warmup
// prefixes simulated, runs forked from them, an estimate of the warmup
// re-simulation wall time avoided, and the grid points it did not serve —
// FlatRuns were not eligible (an ungated plan, a grid that cannot fork),
// FailedForks had their cut refused and were re-run flat.
type ForkStats = sweep.ForkStats

// SweepResult is the outcome of a sweep, in canonical sweep order
// (per app: baseline first, then protocols × granularities × notify modes).
type SweepResult struct {
	Runs []SweepRun

	// Fork holds the prefix-sharing counters when WithFork was in effect
	// (zero otherwise; a grid that forking never engaged on counts all its
	// points in FlatRuns).
	Fork ForkStats

	baselines map[string]Time
}

// Baseline returns the sequential-baseline time for app (0 if the sweep
// skipped baselines).
func (r *SweepResult) Baseline(app string) Time { return r.baselines[app] }

// Speedup returns T_seq / T_par for one run (0 if baselines were skipped).
func (r *SweepResult) Speedup(run SweepRun) float64 {
	seq := r.baselines[run.Point.App]
	if seq == 0 || run.Result == nil || run.Result.Time == 0 {
		return 0
	}
	return float64(seq) / float64(run.Result.Time)
}

// Get returns the result for one configuration, or nil if the sweep did
// not include it. Under a fault grid it returns the first variant's run;
// use GetFault to select a specific variant.
func (r *SweepResult) Get(app, protocol string, block int, notify Notify) *Result {
	for _, run := range r.Runs {
		p := run.Point
		if !p.Sequential && p.App == app && p.Protocol == protocol && p.Block == block && p.Notify == notify {
			return run.Result
		}
	}
	return nil
}

// GetFault returns the result for one configuration under one fault-grid
// variant, or nil if the sweep did not include it.
func (r *SweepResult) GetFault(app, protocol string, block int, notify Notify, fault string) *Result {
	for _, run := range r.Runs {
		p := run.Point
		if !p.Sequential && p.App == app && p.Protocol == protocol && p.Block == block &&
			p.Notify == notify && p.Fault == fault {
			return run.Result
		}
	}
	return nil
}

// Sweep runs the spec's cross-product of simulations, fanning independent
// runs out over a host-level worker pool. Every run is an independent
// deterministic virtual-time simulation, so parallel execution cannot
// perturb results, and all observable output — result order, progress
// lines, CSV records — is emitted in canonical sweep order regardless of
// completion order: a parallel sweep is byte-identical to a serial one.
//
// ctx cancels the sweep between virtual-time steps of the in-flight runs;
// Sweep then returns ctx.Err().
//
//	res, err := dsmsim.Sweep(ctx, dsmsim.SweepSpec{
//	    Apps:  []string{"lu", "raytrace"},
//	    Nodes: 16,
//	}, dsmsim.WithProgress(os.Stderr))
func Sweep(ctx context.Context, spec SweepSpec, opts ...Option) (*SweepResult, error) {
	o := sweep.Options{Size: spec.Size}
	for _, opt := range opts {
		opt(&o)
	}
	if len(spec.Apps) == 0 {
		spec.Apps = AppNames()
	}
	if len(spec.Protocols) == 0 {
		spec.Protocols = Protocols
	}
	if len(spec.Granularities) == 0 {
		spec.Granularities = Granularities
	}
	if len(spec.Notify) == 0 {
		spec.Notify = []Notify{Polling}
	}
	if spec.Nodes == 0 {
		spec.Nodes = 16
	}
	var faultNames []string
	for _, v := range o.FaultGrid {
		faultNames = append(faultNames, v.Name)
	}
	eng, err := sweep.New(o)
	if err != nil {
		return nil, fmt.Errorf("dsmsim: %w", err)
	}
	points := sweep.Dedupe(sweep.Spec{
		Apps:          spec.Apps,
		Protocols:     spec.Protocols,
		Granularities: spec.Granularities,
		Notifies:      spec.Notify,
		Nodes:         spec.Nodes,
		Baselines:     !spec.SkipBaselines,
		Faults:        faultNames,
	}.Points())
	results, err := eng.Run(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("dsmsim: sweep: %w", err)
	}
	out := &SweepResult{Fork: eng.ForkStats(), baselines: map[string]Time{}}
	for i, p := range points {
		out.Runs = append(out.Runs, SweepRun{Point: p, Result: results[i]})
		if p.Sequential && results[i] != nil {
			out.baselines[p.App] = results[i].Time
		}
	}
	return out, nil
}
