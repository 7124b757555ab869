package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
)

// testGrid is a three-variant fault grid whose gated plans arm at barriers
// 4 and 6, so forked prefixes cut at epoch 4.
func testGrid() []FaultVariant {
	return []FaultVariant{
		{Name: "none"},
		{Name: "lossy", Plan: faults.NewPlan(faults.Drop(0.03), faults.Duplicate(0.01),
			faults.Seed(5), faults.StartAtBarrier(4))},
		{Name: "jittery", Plan: faults.NewPlan(faults.Jitter(30*sim.Microsecond),
			faults.Seed(11), faults.StartAtBarrier(6))},
	}
}

// gridSpec crosses two apps with two protocols, two granularities
// and the fault grid: 8 prefix groups of 3 points each, plus baselines.
func gridSpec(grid []FaultVariant) Spec {
	var names []string
	for _, v := range grid {
		names = append(names, v.Name)
	}
	return Spec{
		Apps:          []string{"ocean-rowwise", "fft"},
		Protocols:     []string{core.SC, core.HLRC},
		Granularities: []int{1024, 4096},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
		Baselines:     true,
		Faults:        names,
	}
}

// runGridSweep executes the grid spec and returns every output surface.
func runGridSweep(t *testing.T, workers int, fork bool) (progress, csv, samples string, results []*core.Result, eng *Engine) {
	t.Helper()
	var pb, cb, sb bytes.Buffer
	grid := testGrid()
	eng = mustNew(t, Options{
		Size: apps.Small, Workers: workers, Progress: &pb, CSV: &cb,
		Config: core.Config{SampleEvery: 200 * sim.Microsecond}, SampleCSV: &sb,
		FaultGrid: grid, Fork: fork,
	})
	res, err := eng.Run(context.Background(), gridSpec(grid).Points())
	if err != nil {
		t.Fatal(err)
	}
	return pb.String(), cb.String(), sb.String(), res, eng
}

// TestForkedSweepByteIdenticalToFlat is the tentpole acceptance criterion:
// a forked fault-grid sweep emits byte-identical progress, CSV and sampler
// CSV to the flat sweep, at 1 worker and at 8, and the forked runs' full
// statistics match the flat ones.
func TestForkedSweepByteIdenticalToFlat(t *testing.T) {
	pFlat, cFlat, sFlat, rFlat, _ := runGridSweep(t, 1, false)
	for _, workers := range []int{1, 8} {
		p, c, s, r, eng := runGridSweep(t, workers, true)
		if p != pFlat {
			t.Fatalf("workers=%d: forked progress diverged from flat:\n-- flat --\n%s\n-- forked --\n%s", workers, pFlat, p)
		}
		if c != cFlat {
			t.Fatalf("workers=%d: forked CSV diverged from flat:\n-- flat --\n%s\n-- forked --\n%s", workers, cFlat, c)
		}
		if s != sFlat {
			t.Fatalf("workers=%d: forked sample CSV diverged from flat", workers)
		}
		for i := range rFlat {
			if rFlat[i].Time != r[i].Time || !reflect.DeepEqual(rFlat[i].Total, r[i].Total) ||
				rFlat[i].NetMsgs != r[i].NetMsgs || rFlat[i].Retransmits != r[i].Retransmits {
				t.Fatalf("workers=%d: run %d stats diverged between flat and forked", workers, i)
			}
		}
		if len(eng.cps.m) == 0 {
			t.Fatalf("workers=%d: forked sweep computed no prefix checkpoints — fork path never engaged", workers)
		}
	}
	if !strings.HasPrefix(cFlat, csvHeader+",fault\n") {
		t.Fatalf("grid CSV missing fault column:\n%s", strings.SplitN(cFlat, "\n", 2)[0])
	}
	if !strings.Contains(cFlat, ",lossy\n") || !strings.Contains(cFlat, ",none\n") {
		t.Fatalf("grid CSV missing variant records:\n%s", cFlat)
	}
	if !strings.HasPrefix(sFlat, "app,protocol,block,notify,nodes,fault,") {
		t.Fatalf("grid sample CSV missing fault column:\n%s", strings.SplitN(sFlat, "\n", 2)[0])
	}
}

// TestForkFallbackAppTooShort: when the grid's cut epoch lies beyond an
// app's last barrier, that app's points must fall back to flat runs (and
// stay byte-identical) while longer apps still fork, and ForkStats must
// say so.
func TestForkFallbackAppTooShort(t *testing.T) {
	grid := []FaultVariant{
		{Name: "none"},
		{Name: "lossy", Plan: faults.NewPlan(faults.Drop(0.02), faults.Seed(3),
			faults.StartAtBarrier(10))}, // fft has only 7 barriers
	}
	spec := Spec{
		Apps:          []string{"fft", "ocean-rowwise"},
		Protocols:     []string{core.SC},
		Granularities: []int{4096},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
		Faults:        []string{"none", "lossy"},
	}
	run := func(fork bool) (string, *Engine) {
		var cb bytes.Buffer
		e := mustNew(t, Options{Size: apps.Small, Workers: 4, CSV: &cb, FaultGrid: grid, Fork: fork})
		if _, err := e.Run(context.Background(), spec.Points()); err != nil {
			t.Fatal(err)
		}
		return cb.String(), e
	}
	flat, _ := run(false)
	forked, eng := run(true)
	if flat != forked {
		t.Fatalf("CSV diverged:\n-- flat --\n%s\n-- forked --\n%s", flat, forked)
	}
	if len(eng.cps.m) != 1 {
		t.Fatalf("prefix checkpoints = %d, want exactly 1 (ocean forks, fft falls back)", len(eng.cps.m))
	}
	fs := eng.ForkStats()
	fs.SavedWall = 0
	if want := (ForkStats{Prefixes: 1, ForkedRuns: 2, FailedForks: 2}); fs != want {
		t.Fatalf("fork stats = %+v, want %+v (both fft points tried the cut and re-ran flat)", fs, want)
	}
}

// TestForkStatsCountFlatRuns: a forked grid over two apps, one of them
// taking locks, forks every point, and a grid that cannot fork at all
// reports every point as flat rather than leaving it out of the summary.
func TestForkStatsCountFlatRuns(t *testing.T) {
	spec := gridSpec(testGrid())
	spec.Apps = []string{"ocean-rowwise", "water-nsquared"}
	spec.Protocols, spec.Granularities = []string{core.SC}, []int{4096}
	stats := func(grid []FaultVariant) ForkStats {
		e := mustNew(t, Options{Size: apps.Small, Workers: 4, FaultGrid: grid, Fork: true})
		if _, err := e.Run(context.Background(), spec.Points()); err != nil {
			t.Fatal(err)
		}
		fs := e.ForkStats()
		fs.SavedWall = 0
		return fs
	}
	if got, want := stats(testGrid()), (ForkStats{Prefixes: 2, ForkedRuns: 6}); got != want {
		t.Errorf("fork stats = %+v, want %+v (every point forked)", got, want)
	}
	ungated := testGrid()
	for i := range ungated {
		ungated[i].Plan = faults.NewPlan(faults.Drop(0.01), faults.Seed(uint64(i+1)))
	}
	if got, want := stats(ungated), (ForkStats{FlatRuns: 6}); got != want {
		t.Errorf("ungated grid: fork stats = %+v, want %+v", got, want)
	}
}

// TestForkEligibility covers the planner's static gating decisions.
func TestForkEligibility(t *testing.T) {
	gated := faults.NewPlan(faults.Drop(0.01), faults.StartAtBarrier(4))
	ungated := faults.NewPlan(faults.Drop(0.01))
	newEng := func(grid []FaultVariant, fork bool, prof bool) *Engine {
		return mustNew(t, Options{Size: apps.Small, FaultGrid: grid, Fork: fork, Config: core.Config{ShareProfile: prof}})
	}

	if e := newEng(testGrid(), true, false); e.forkEpoch() != 4 {
		t.Fatalf("forkEpoch = %d, want 4 (earliest gated start)", e.forkEpoch())
	}
	if e := newEng(testGrid(), false, false); e.forkEpoch() != 0 {
		t.Fatal("fork off but forkEpoch > 0")
	}
	if e := newEng(testGrid(), true, true); e.forkEpoch() != 0 {
		t.Fatal("sharing profiler attached but forkEpoch > 0")
	}
	if e := newEng([]FaultVariant{{Name: "a", Plan: gated}}, true, false); e.forkEpoch() != 0 {
		t.Fatal("single-variant grid but forkEpoch > 0")
	}
	if e := newEng([]FaultVariant{{Name: "a", Plan: ungated}, {Name: "b", Plan: ungated}}, true, false); e.forkEpoch() != 0 {
		t.Fatal("all-ungated grid but forkEpoch > 0")
	}

	k := Key{App: "ocean-rowwise", Protocol: "sc", Block: 1024, Notify: network.Polling, Nodes: 4, Fault: "lossy"}
	if !forkable(k, gated, 4) {
		t.Fatal("gated point not forkable")
	}
	if forkable(k, gated, 5) {
		t.Fatal("plan armed before the cut reported forkable")
	}
	if forkable(k, ungated, 4) {
		t.Fatal("ungated plan reported forkable")
	}
	if !forkable(k, nil, 4) {
		t.Fatal("healthy variant (nil plan) not forkable")
	}
	if forkable(Seq("ocean-rowwise"), nil, 4) {
		t.Fatal("sequential baseline reported forkable")
	}
}

// TestForkedVerifyFailureFailsSweep: a forked result that fails Verify is a
// fork-correctness bug, not a refusal. The sweep must fail with the verify
// error instead of re-running the point flat and counting a failed fork.
func TestForkedVerifyFailureFailsSweep(t *testing.T) {
	forkedHook = func(res *core.Result) { clear(res.Heap.Bytes(0, res.Heap.Used())) }
	defer func() { forkedHook = nil }()
	spec := gridSpec(testGrid())
	spec.Apps, spec.Baselines = []string{"ocean-rowwise"}, false
	e := mustNew(t, Options{Size: apps.Small, Workers: 1, FaultGrid: testGrid(), Fork: true})
	_, err := e.Run(context.Background(), spec.Points())
	if err == nil || !strings.Contains(err.Error(), "verify") {
		t.Fatalf("sweep with a broken fork returned %v, want its verify error", err)
	}
	if fs := e.ForkStats(); fs.FailedForks != 0 {
		t.Fatalf("fork stats = %+v: the broken fork was counted as refused", fs)
	}
}

// TestSpecPointsFaultGridOrder: fault variants expand innermost, keeping a
// prefix group's points adjacent in canonical order.
func TestSpecPointsFaultGridOrder(t *testing.T) {
	s := Spec{
		Apps:          []string{"lu"},
		Protocols:     []string{"sc"},
		Granularities: []int{64, 256},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
		Faults:        []string{"none", "lossy"},
	}
	want := []Key{
		{App: "lu", Protocol: "sc", Block: 64, Notify: network.Polling, Nodes: 4, Fault: "none"},
		{App: "lu", Protocol: "sc", Block: 64, Notify: network.Polling, Nodes: 4, Fault: "lossy"},
		{App: "lu", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4, Fault: "none"},
		{App: "lu", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4, Fault: "lossy"},
	}
	if got := s.Points(); !reflect.DeepEqual(got, want) {
		t.Fatalf("points = %v\nwant %v", got, want)
	}
}

// TestMemoCanceledLeaderDoesNotPoisonFollowers: a follower that joined an
// in-flight computation whose leader fails (a cancelled sweep) must not
// inherit the failure — it retries with its own compute function, and its
// success is cached.
func TestMemoCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	m := NewMemo()
	k := Key{App: "x"}
	leaderStarted := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, fresh := m.Do(k, func() (*core.Result, error) {
			close(leaderStarted)
			<-release
			return nil, context.Canceled
		})
		if !fresh || !errors.Is(err, context.Canceled) {
			t.Errorf("leader: err=%v fresh=%v, want canceled+fresh", err, fresh)
		}
	}()
	<-leaderStarted

	want := &core.Result{App: "x"}
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		res, err, fresh := m.Do(k, func() (*core.Result, error) { return want, nil })
		if err != nil || res != want || !fresh {
			t.Errorf("follower: res=%v err=%v fresh=%v, want its own fresh success", res, err, fresh)
		}
	}()
	// Give the follower time to join the leader's in-flight entry, then
	// fail the leader. (If the follower loses the race and arrives after
	// the failure, it computes fresh anyway — the assertion holds either
	// way; the sleep just makes the interesting interleaving the usual
	// one.)
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-followerDone
	wg.Wait()

	// The follower's successful retry must now be cached.
	res, err, fresh := m.Do(k, func() (*core.Result, error) {
		t.Error("cached success recomputed")
		return nil, nil
	})
	if err != nil || res != want || fresh {
		t.Fatalf("post-retry lookup: res=%v err=%v fresh=%v, want cached %v", res, err, fresh, want)
	}
}
