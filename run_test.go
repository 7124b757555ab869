package dsmsim_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dsmsim"
)

func smallCfg() dsmsim.Config {
	return dsmsim.Config{Nodes: 4, BlockSize: 64, Protocol: dsmsim.HLRC}
}

// TestStartOptionsApply: WithFaults degrades the run (reliability traffic
// appears, time grows), WithTrace captures the wire events, and the same
// plan replays bit-identically.
func TestStartOptionsApply(t *testing.T) {
	ctx := context.Background()
	healthy, err := dsmsim.StartApp(ctx, smallCfg(), "lu", dsmsim.Small, dsmsim.WithVerify())
	if err != nil {
		t.Fatal(err)
	}

	plan := dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(3))
	var trace bytes.Buffer
	faulty, err := dsmsim.StartApp(ctx, smallCfg(), "lu", dsmsim.Small,
		dsmsim.WithVerify(), dsmsim.WithFaults(plan), dsmsim.WithTrace(&trace))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Retransmits == 0 || faulty.WireDrops == 0 {
		t.Fatalf("2%% drop produced no reliability traffic: retx=%d drops=%d",
			faulty.Retransmits, faulty.WireDrops)
	}
	if faulty.Time <= healthy.Time {
		t.Fatalf("faulty run (%v) not slower than healthy (%v)", faulty.Time, healthy.Time)
	}
	if !strings.Contains(trace.String(), "drop") {
		t.Fatal("trace did not record any wire drop")
	}

	again, err := dsmsim.StartApp(ctx, smallCfg(), "lu", dsmsim.Small,
		dsmsim.WithVerify(), dsmsim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != faulty.Time || again.Retransmits != faulty.Retransmits ||
		again.WireDrops != faulty.WireDrops {
		t.Fatal("same fault plan did not replay bit-identically")
	}
}

// TestStartTypedErrors: the re-exported sentinels match through the public
// entrypoints.
func TestStartTypedErrors(t *testing.T) {
	_, err := dsmsim.StartApp(context.Background(),
		dsmsim.Config{Nodes: 4, BlockSize: 100, Protocol: dsmsim.SC}, "lu", dsmsim.Small)
	if !errors.Is(err, dsmsim.ErrBadBlockSize) {
		t.Fatalf("err = %v, want ErrBadBlockSize", err)
	}
	cfg := smallCfg()
	cfg.Protocol = "tso"
	if _, err := dsmsim.Start(context.Background(), cfg, nil, dsmsim.WithVerify()); !errors.Is(err, dsmsim.ErrUnknownProtocol) {
		t.Fatalf("err = %v, want ErrUnknownProtocol", err)
	}
	bad := dsmsim.NewFaultPlan(dsmsim.Drop(1.5))
	_, err = dsmsim.StartApp(context.Background(), smallCfg(), "lu", dsmsim.Small,
		dsmsim.WithFaults(bad))
	if !errors.Is(err, dsmsim.ErrBadFaultPlan) || !errors.Is(err, dsmsim.ErrBadProbability) {
		t.Fatalf("err = %v, want ErrBadFaultPlan wrapping ErrBadProbability", err)
	}
	if err := bad.Validate(); !errors.Is(err, dsmsim.ErrBadProbability) {
		t.Fatalf("Validate() = %v, want ErrBadProbability", err)
	}
}

// TestSequentialIgnoresFaultPlan: a sequential baseline ignores the fault
// plan and the profilers, so a plan naming node 3 validates on its one
// node, and the run is the healthy, unobserved one.
func TestSequentialIgnoresFaultPlan(t *testing.T) {
	ctx := context.Background()
	cfg := dsmsim.Config{Sequential: true, BlockSize: 4096}
	healthy, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Small, dsmsim.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	plan := dsmsim.NewFaultPlan(dsmsim.Partition(0, 3, 0, dsmsim.Millisecond), dsmsim.Straggler(3, 4, 0, dsmsim.Second))
	cfg.CritPath, cfg.ShareProfile = true, true
	res, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Small, dsmsim.WithVerify(), dsmsim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != healthy.Time || res.CritPath != nil || res.Sharing != nil {
		t.Fatalf("baseline under a plan and profilers: time %v (healthy %v), crit %v, sharing %v",
			res.Time, healthy.Time, res.CritPath != nil, res.Sharing != nil)
	}
}

// TestParseFaults: the CLI fault syntax, a straggler clause included,
// round-trips into a usable plan.
func TestParseFaults(t *testing.T) {
	plan, err := dsmsim.ParseFaults("drop=0.01,jitter=5us,seed=7,straggler=2x3")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := dsmsim.StartApp(context.Background(), smallCfg(), "lu", dsmsim.Small,
		dsmsim.WithVerify(), dsmsim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("parsed plan produced no reliability traffic")
	}
	if _, err := dsmsim.ParseFaults("drop=nope"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestSweepWithFaults: the shared option applies a plan to a sweep, and
// the sweep stays byte-identical at any parallelism.
func TestSweepWithFaults(t *testing.T) {
	spec := dsmsim.SweepSpec{
		Apps:          []string{"lu"},
		Protocols:     []string{dsmsim.SC, dsmsim.HLRC},
		Granularities: []int{64},
		Nodes:         4,
		SkipBaselines: true,
	}
	plan := dsmsim.NewFaultPlan(dsmsim.Drop(0.01), dsmsim.FaultSeed(1))
	run := func(workers int) (string, *dsmsim.SweepResult) {
		var csv bytes.Buffer
		res, err := dsmsim.Sweep(context.Background(), spec,
			dsmsim.WithParallelism(workers), dsmsim.WithFaults(plan), dsmsim.WithCSV(&csv))
		if err != nil {
			t.Fatal(err)
		}
		return csv.String(), res
	}
	c1, r1 := run(1)
	c4, r4 := run(4)
	if c1 != c4 {
		t.Fatalf("faulty sweep CSV diverged between 1 and 4 workers:\n%s\nvs\n%s", c1, c4)
	}
	var sawRetx bool
	for i := range r1.Runs {
		a, b := r1.Runs[i].Result, r4.Runs[i].Result
		if a.Time != b.Time || a.Retransmits != b.Retransmits {
			t.Fatalf("run %d diverged across parallelism", i)
		}
		sawRetx = sawRetx || a.Retransmits > 0
	}
	if !sawRetx {
		t.Fatal("1% drop sweep produced no retransmissions")
	}
}
