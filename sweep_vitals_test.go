package dsmsim_test

import (
	"context"
	"fmt"
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
	// Two collections: the first only moves the slab pool to its victim
	// cache.
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
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

// TestSweepgridPoolAndMemoVitals runs the plan of the benchmark's sweepgrid
// workload — two apps × every protocol × {256, 4096} B × 12 fault
// variants, forked, two workers: 240 runs and 20 prefix runs — and holds the
// counters the saving rests on to a floor. After a first sweep the 260
// Setups of a second may compute no sequential reference, and at least 98 %
// of its 260 master images and of its 260 × 16 spaces' slabs must come out
// of their pools (measured: all of them; the slack is for a worker that
// draws one of ocean's slabs for lu). The slabs wait on stacks here, so the
// floor holds the pools' policy — one pool for every size, every exit of a
// run giving back — and not a sync.Pool's retention, which read 98–99.6 % of
// the images on the same plan.
func TestSweepgridPoolAndMemoVitals(t *testing.T) {
	defer mem.StackSlabs(nil)()
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
	spaces0, images0 := mem.SlabStats()
	sweep()
	computed, shared := apps.RefStats()
	spaces, images := mem.SlabStats()
	computed, shared = computed-computed0, shared-shared0
	t.Logf("references: %d computed, %d shared", computed, shared)
	if computed != 0 || shared != 260 {
		t.Errorf("260 Setups computed %d references and shared %d; want 0 and 260", computed, shared)
	}
	for _, pool := range []struct {
		name          string
		before, after mem.PoolCounts
		draws         int64
	}{{"master images", images0, images, 260}, {"spaces' slabs", spaces0, spaces, 260 * 16}} {
		hits, misses := pool.after.Hits-pool.before.Hits, pool.after.Misses-pool.before.Misses
		t.Logf("%s: %d recycled, %d allocated", pool.name, hits, misses)
		if hits+misses != pool.draws || hits < pool.draws*98/100 {
			t.Errorf("%d of %d %s came out of the pool; want at least %d of %d", hits, hits+misses, pool.name, pool.draws*98/100, pool.draws)
		}
	}
}
