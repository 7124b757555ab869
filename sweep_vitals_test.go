package dsmsim_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/mem"
)

// TestSweepHoldsNoImages pins what a sweep's results retain: verification
// happens inside the sweep and each run's master image goes back to the
// pool after it, so Runs[i].Result.Heap is nil and holding the result of a
// grid four times larger costs the extra runs' statistics, not their
// images. barnes-original's image is 2.6 MB and what a 4-node run leaves in
// its Result measures 23 KB; the ceiling per extra run is a tenth of the
// image.
func TestSweepHoldsNoImages(t *testing.T) {
	const app = "barnes-original"
	sweep := func(blocks []int) *dsmsim.SweepResult {
		res, err := dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
			Apps: []string{app}, Protocols: dsmsim.AllProtocols(), Granularities: blocks,
			Nodes: 4, SkipBaselines: true,
		}, dsmsim.WithVerify(), dsmsim.WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range res.Runs {
			if run.Result.Heap != nil {
				t.Fatalf("%s: a sweep result carries its master image", run.Point)
			}
		}
		return res
	}
	sweep([]int{4096}) // the shared reference and every lazily built table exist
	small := sweep([]int{4096})
	before := live()
	large := sweep([]int{64, 256, 1024, 4096})
	after := live()
	extra := len(large.Runs) - len(small.Runs)
	if extra != 3*len(small.Runs) {
		t.Fatalf("grids of %d and %d runs, want 1:4", len(small.Runs), len(large.Runs))
	}
	a, err := dsmsim.NewApp(app, dsmsim.Small)
	if err != nil {
		t.Fatal(err)
	}
	image := a.Info().HeapBytes
	perRun := (int64(after) - int64(before)) / int64(extra)
	t.Logf("holding %d more runs costs %d bytes each; one image is %d", extra, perRun, image)
	if perRun > int64(image)/10 {
		t.Errorf("each held run retains %d bytes, more than a tenth of its %d-byte master image", perRun, image)
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(large)
}

// live returns the bytes the heap holds after two collections: the first
// only moves a sync.Pool to its victim cache.
func live() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStartHoldsNoImages is TestSweepHoldsNoImages for single runs. A
// verified Start checks the final image and gives it back to the pool, so
// its Result's Heap is nil, the next verified Start draws that image
// again, and holding eight verified results costs their statistics, not
// their 2.6 MB images (ceiling: a tenth of an image each). An unverified
// Start keeps its Heap for the caller to inspect.
func TestStartHoldsNoImages(t *testing.T) {
	const app, held = "barnes-original", 8
	start := func(opts ...dsmsim.Option) *dsmsim.Result {
		res, err := dsmsim.StartApp(context.Background(),
			dsmsim.Config{Nodes: 4, BlockSize: 4096, Protocol: dsmsim.HLRC}, app, dsmsim.Small, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := start(); res.Heap == nil || res.Heap.Used() == 0 {
		t.Fatal("an unverified Start returned no image to inspect")
	}
	start(dsmsim.WithVerify()) // the shared reference exists and the pools hold an image
	_, _, images0 := mem.SlabStats()
	res := start(dsmsim.WithVerify())
	_, _, images := mem.SlabStats()
	if res.Heap != nil {
		t.Fatal("a verified Start's result carries its master image")
	}
	if got := (mem.PoolCounts{Hits: images.Hits - images0.Hits, Misses: images.Misses - images0.Misses}); got != (mem.PoolCounts{Hits: 1}) {
		t.Errorf("the second warm verified Start drew its image (hits, misses) %v; want the one the first gave back", got)
	}
	before := live()
	results := make([]*dsmsim.Result, held)
	for i := range results {
		results[i] = start(dsmsim.WithVerify())
	}
	after := live()
	a, err := dsmsim.NewApp(app, dsmsim.Small)
	if err != nil {
		t.Fatal(err)
	}
	image := a.Info().HeapBytes
	perRun := (int64(after) - int64(before)) / held
	t.Logf("holding %d verified results costs %d bytes each; one image is %d", held, perRun, image)
	if perRun > int64(image)/10 {
		t.Errorf("each held result retains %d bytes, more than a tenth of its %d-byte master image", perRun, image)
	}
	runtime.KeepAlive(results)
}

// TestSweepgridPoolAndMemoVitals runs the plan of the benchmark's sweepgrid
// workload — two apps × every protocol × {256, 4096} B × 12 fault
// variants, forked, two workers: 240 runs and 20 prefix runs — and holds the
// counters the saving rests on to a floor. After a first sweep the 260
// Setups of a second may compute no sequential reference, and at least 98 %
// of its 260 master images and of its 260 × 16 spaces' slabs and Space
// structs must come out of their pools (measured: all of them; the slack is
// for a worker that draws one of ocean's slabs for lu). The floor holds the
// pools' policy: one pool for every size, every exit of a run giving back.
func TestSweepgridPoolAndMemoVitals(t *testing.T) {
	grid := []dsmsim.FaultVariant{{Name: "none"}}
	for i := uint64(1); i <= 11; i++ {
		grid = append(grid, dsmsim.FaultVariant{
			Name: fmt.Sprintf("s%d", i),
			Plan: dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(i), dsmsim.StartAtBarrier(12)),
		})
	}
	spec := dsmsim.SweepSpec{
		Apps: []string{"ocean-rowwise", "lu"}, Protocols: dsmsim.AllProtocols(), Granularities: []int{256, 4096},
		Nodes: 16, SkipBaselines: true,
	}
	sweep := func() {
		res, err := dsmsim.Sweep(context.Background(), spec, dsmsim.WithFaultGrid(grid...),
			dsmsim.WithParallelism(2), dsmsim.WithVerify(), dsmsim.WithFork())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 240 || res.Fork.ForkedRuns != 240 || res.Fork.Prefixes != 20 {
			t.Fatalf("%d runs, %d forked from %d prefixes; want 240, 240 and 20", len(res.Runs), res.Fork.ForkedRuns, res.Fork.Prefixes)
		}
	}
	sweep() // an iteration of the benchmark is not the process's first
	computed0, shared0 := apps.RefStats()
	spaces0, structs0, images0 := mem.SlabStats()
	sweep()
	computed, shared := apps.RefStats()
	spaces, structs, images := mem.SlabStats()
	computed, shared = computed-computed0, shared-shared0
	t.Logf("references: %d computed, %d shared", computed, shared)
	if computed != 0 || shared != 260 {
		t.Errorf("260 Setups computed %d references and shared %d; want 0 and 260", computed, shared)
	}
	for _, pool := range []struct {
		name          string
		before, after mem.PoolCounts
		draws         int64
	}{
		{"master images", images0, images, 260},
		{"spaces' slabs", spaces0, spaces, 260 * 16},
		{"Space structs", structs0, structs, 260 * 16},
	} {
		hits, misses := pool.after.Hits-pool.before.Hits, pool.after.Misses-pool.before.Misses
		t.Logf("%s: %d recycled, %d allocated", pool.name, hits, misses)
		if hits+misses != pool.draws || hits < pool.draws*98/100 {
			t.Errorf("%d of %d %s came out of the pool; want at least %d of %d", hits, hits+misses, pool.name, pool.draws*98/100, pool.draws)
		}
	}
}

// TestPoolsSurviveCollections: what a run gives back waits for the next run
// however many collections come between, so a warm verified Start draws
// every buffer, value and space from the pools.
func TestPoolsSurviveCollections(t *testing.T) {
	start := func() {
		_, err := dsmsim.StartApp(context.Background(),
			dsmsim.Config{Nodes: 4, BlockSize: 4096, Protocol: dsmsim.HLRC}, "water-nsquared", dsmsim.Small, dsmsim.WithVerify())
		if err != nil {
			t.Fatal(err)
		}
	}
	start()
	start() // a pool serving two lengths in one run hands the long buffer to the short draw once
	for i := range 5 {
		runtime.GC()
		runtime.GC()
		c0 := mem.PoolTotals()
		start()
		c := mem.PoolTotals()
		if hits, misses := c.Hits-c0.Hits, c.Misses-c0.Misses; misses != 0 || hits == 0 {
			t.Errorf("Start %d after two collections: %d of %d pool draws missed", i, misses, hits+misses)
		}
	}
}

// TestIdleListsDoNotGrow: a pool keeps whatever comes back to it until no
// run has drawn it for 64 runs, so a Put with no matching Get would grow it
// for as long as runs keep coming, and a draw that keeps a longer buffer
// than the ones it drops would grow its bytes. Rounds of a verified Start
// under every protocol, a traced Start and a forked fault-grid Sweep draw
// what the round before gave back; after the second round the number of
// buffers waiting in the pools, and the bytes they hold, must stay where
// they are. The pools start empty: a surplus left by earlier tests would
// shrink, because a checkpoint's tables keep the shards they draw.
func TestIdleListsDoNotGrow(t *testing.T) {
	defer mem.IsolatePools(nil)()
	ctx := context.Background()
	cfg := func(protocol string) dsmsim.Config {
		return dsmsim.Config{Nodes: 4, BlockSize: 1024, Protocol: protocol}
	}
	grid := []dsmsim.FaultVariant{{Name: "none"}, {
		Name: "lossy", Plan: dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(1), dsmsim.StartAtBarrier(3)),
	}}
	round := func() {
		for _, protocol := range dsmsim.AllProtocols() {
			if _, err := dsmsim.StartApp(ctx, cfg(protocol), "lu", dsmsim.Small, dsmsim.WithVerify()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dsmsim.StartApp(ctx, cfg(dsmsim.HLRC), "water-nsquared", dsmsim.Small,
			dsmsim.WithVerify(), dsmsim.WithTrace(io.Discard)); err != nil {
			t.Fatal(err)
		}
		res, err := dsmsim.Sweep(ctx, dsmsim.SweepSpec{
			Apps: []string{"lu", "ocean-rowwise"}, Protocols: dsmsim.AllProtocols(), Granularities: []int{4096},
			Nodes: 4, SkipBaselines: true,
		}, dsmsim.WithFaultGrid(grid...), dsmsim.WithFork(), dsmsim.WithVerify(), dsmsim.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fork.ForkedRuns == 0 {
			t.Fatal("the sweep forked no run")
		}
	}
	round()
	round()
	idle := mem.PoolTotals()
	for i := 3; i <= 5; i++ {
		round()
		if now := mem.PoolTotals(); now.Idle != idle.Idle || now.IdleBytes != idle.IdleBytes {
			t.Fatalf("round %d left %d buffers of %d bytes waiting in the pools, round 2 left %d of %d",
				i, now.Idle, now.IdleBytes, idle.Idle, idle.IdleBytes)
		}
	}
	t.Logf("%d buffers of %d bytes wait in the pools after each round", idle.Idle, idle.IdleBytes)
}
