package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// checkExact asserts the exact-path invariant on a finished run: the
// recovered critical path is a contiguous chain from t=0 to the final
// virtual time, so its length — and the sum of its per-component and
// per-node splits — equals the completion time exactly, not
// approximately.
func checkExact(t *testing.T, res *core.Result) {
	t.Helper()
	cp := res.CritPath
	if cp == nil {
		t.Fatal("Result.CritPath nil with Config.CritPath set")
	}
	if cp.Total != res.Time {
		t.Errorf("path length %v != completion time %v (off by %v)", cp.Total, res.Time, res.Time-cp.Total)
	}
	var comps, nodes sim.Time
	for c := critpath.Component(0); c < critpath.NumComponents; c++ {
		comps += cp.Components[c]
	}
	for _, nt := range cp.Nodes {
		nodes += nt.Time
	}
	if comps != cp.Total {
		t.Errorf("component sum %v != path length %v", comps, cp.Total)
	}
	if nodes != cp.Total {
		t.Errorf("node sum %v != path length %v", nodes, cp.Total)
	}
	if cp.Events <= 0 || cp.Recorded < cp.Events {
		t.Errorf("events=%d recorded=%d", cp.Events, cp.Recorded)
	}
	for cl := critpath.Class(0); cl < critpath.NumClasses; cl++ {
		if cp.Scalable[cl] < 0 || cp.Scalable[cl] > cp.Total {
			t.Errorf("scalable[%v] = %v out of [0, %v]", cl, cp.Scalable[cl], cp.Total)
		}
	}
}

// TestCritPathExactInvariant runs every application under every protocol
// with the profiler attached and asserts the exact-path invariant.
func TestCritPathExactInvariant(t *testing.T) {
	for _, entry := range apps.All() {
		for _, protocol := range testProtocols {
			entry, protocol := entry, protocol
			t.Run(entry.Name+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				if testing.Short() && entry.Name != "fft" && entry.Name != "lu" && entry.Name != "water-nsquared" {
					t.Skip("full app cross product")
				}
				m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol, CritPath: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.RunVerifiedContext(context.Background(), entry.New(apps.Small))
				if err != nil {
					t.Fatal(err)
				}
				checkExact(t, res)
			})
		}
	}
}

// TestCritPathExactInvariantUnderFaults re-checks the invariant with the
// link layer active: dropped frames, duplicates and jitter route the
// path through ARQ records (retransmitted frames, timers, acks, reorder
// waits), which must chain exactly too.
func TestCritPathExactInvariantUnderFaults(t *testing.T) {
	plan, err := faults.Parse("drop=0.03,dup=0.01,jitter=20us,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"fft", "lu", "ocean-rowwise"} {
		for _, protocol := range testProtocols {
			app, protocol := app, protocol
			t.Run(app+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				entry, err := apps.Get(app)
				if err != nil {
					t.Fatal(err)
				}
				m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol,
					CritPath: true, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.RunVerifiedContext(context.Background(), entry.New(apps.Small))
				if err != nil {
					t.Fatal(err)
				}
				checkExact(t, res)
				if res.Retransmits == 0 {
					t.Error("fault plan produced no retransmissions; ARQ path untested")
				}
			})
		}
	}
}

// TestCritPathObservational: attaching the profiler must not change the
// simulation — every deterministic Result field matches a profiler-off
// run of the same configuration, and profiler-off runs carry no report.
func TestCritPathObservational(t *testing.T) {
	for _, protocol := range testProtocols {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			entry, err := apps.Get("ocean-rowwise")
			if err != nil {
				t.Fatal(err)
			}
			app := entry.New(apps.Small)
			off, err := mustMachine(t, core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol}).RunVerifiedContext(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			on, err := mustMachine(t, core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol, CritPath: true}).RunVerifiedContext(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			if off.CritPath != nil {
				t.Error("profiler-off run carries a CritPath report")
			}
			compareResults(t, off, on)
		})
	}
}

func mustMachine(t *testing.T, cfg core.Config) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCritPathForkMatchesFlat: a run forked from a mid-run checkpoint
// with the profiler attached must recover the identical critical path —
// the tracker's captured chain state (including the cut barrier-arrive
// context) splices the suffix onto the prefix exactly.
func TestCritPathForkMatchesFlat(t *testing.T) {
	for _, protocol := range testProtocols {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			cfg := core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol, CritPath: true}
			entry, err := apps.Get("ocean-rowwise")
			if err != nil {
				t.Fatal(err)
			}
			app := entry.New(apps.Small)
			flat, err := mustMachine(t, cfg).RunVerifiedContext(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			m := mustMachine(t, cfg)
			cp, err := m.RunToBarrier(ctx, app, 9)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := m.RunFromCheckpoint(ctx, cp, app)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, flat, forked)
			if !reflect.DeepEqual(flat.CritPath, forked.CritPath) {
				t.Errorf("critical-path reports diverge:\nflat %+v\nfork %+v", flat.CritPath, forked.CritPath)
			}
		})
	}
}

// TestCritPathForkRequiresMatchingProfiler: a checkpoint captured without
// the profiler cannot seed a profiled run (the prefix's chain is gone),
// and vice versa.
func TestCritPathForkRequiresMatchingProfiler(t *testing.T) {
	ctx := context.Background()
	entry, err := apps.Get("ocean-rowwise")
	if err != nil {
		t.Fatal(err)
	}
	app := entry.New(apps.Small)
	plain := core.Config{Nodes: 4, BlockSize: 1024, Protocol: core.SC}
	profiled := plain
	profiled.CritPath = true
	cpPlain, err := mustMachine(t, plain).RunToBarrier(ctx, app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustMachine(t, profiled).RunFromCheckpoint(ctx, cpPlain, app); !errors.Is(err, core.ErrNotResumable) {
		t.Errorf("plain checkpoint into profiled run: got %v, want ErrNotResumable", err)
	}
	cpProf, err := mustMachine(t, profiled).RunToBarrier(ctx, app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustMachine(t, plain).RunFromCheckpoint(ctx, cpProf, app); !errors.Is(err, core.ErrNotResumable) {
		t.Errorf("profiled checkpoint into plain run: got %v, want ErrNotResumable", err)
	}
}

// TestWhatIfPredictionTracksResimulation validates the causal analysis:
// rescaling one cost class and re-simulating must land near the
// critical-path prediction. The prediction is a near-lower bound — it
// rescales the recorded path, while the re-simulation can route around
// it (a different chain becomes critical) and queueing effects do not
// scale — so we assert agreement within 15%, and that the prediction
// does not exceed the baseline when costs shrink.
func TestWhatIfPredictionTracksResimulation(t *testing.T) {
	cases := []struct {
		app  string
		spec string
	}{
		{"volrend-original", "lock=0.5"}, // task-queue locks dominate its path
		{"fft", "msg=0.5"},               // transpose-bound app, halve wire latency
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app+"/"+tc.spec, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			entry, err := apps.Get(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			scale, err := critpath.ParseScale(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Nodes: 8, BlockSize: 1024, Protocol: core.HLRC, CritPath: true}
			base, err := mustMachine(t, cfg).RunVerifiedContext(ctx, entry.New(apps.Small))
			if err != nil {
				t.Fatal(err)
			}
			cfg.WhatIf = scale
			resim, err := mustMachine(t, cfg).RunVerifiedContext(ctx, entry.New(apps.Small))
			if err != nil {
				t.Fatal(err)
			}
			pred := base.CritPath.Predict(scale)
			if resim.Time >= base.Time {
				t.Errorf("halving %s did not speed up the run: base %v, resim %v", tc.spec, base.Time, resim.Time)
			}
			if pred > base.Time {
				t.Errorf("prediction %v exceeds baseline %v for a cost cut", pred, base.Time)
			}
			relErr := math.Abs(float64(pred-resim.Time)) / float64(resim.Time)
			if relErr > 0.15 {
				t.Errorf("prediction %v vs re-simulated %v: %.1f%% apart (bound 15%%)", pred, resim.Time, 100*relErr)
			}
			// The rescaled run is itself profiled: the invariant holds on
			// the what-if machine too.
			checkExact(t, resim)
		})
	}
}
