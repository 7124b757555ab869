package dsmsim_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"dsmsim"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
)

// TestSweepCSVGolden proves the sparse-directory refactor left ≤64-node
// results byte-identical: a fresh sweep's CSV stream must match the
// checked-in golden generated before the representation change.
func TestSweepCSVGolden(t *testing.T) {
	checkSweepCSVGolden(t)
}

// TestSweepCSVGoldenPoisoned is TestSweepCSVGolden with every data buffer a
// closing network hands to the next one filled with 0xA5, one worker and
// eight: no caller of AllocData reads a buffer it has not overwritten, so
// another run's bytes cannot reach a result.
func TestSweepCSVGoldenPoisoned(t *testing.T) {
	var poisoned atomic.Int64
	defer network.SetCloseHook(func(buf []byte) {
		poisoned.Add(1)
		for k := range buf {
			buf[k] = 0xA5
		}
	})()
	for _, workers := range []int{1, 8} {
		checkSweepCSVGolden(t, dsmsim.WithParallelism(workers))
	}
	t.Logf("%d data buffers poisoned", poisoned.Load())
	if poisoned.Load() == 0 {
		t.Fatal("no network handed on a data buffer: the poison reached nothing")
	}
}

func checkSweepCSVGolden(t *testing.T, opts ...dsmsim.Option) {
	t.Helper()
	want, err := os.ReadFile("testdata/sweep_golden_16n.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	_, err = dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Apps:          []string{"fft", "lu"},
		Granularities: []int{64, 4096},
		Nodes:         16,
		Size:          dsmsim.Small,
	}, append(opts, dsmsim.WithCSV(&got))...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sweep CSV diverged from pre-refactor golden testdata/sweep_golden_16n.csv\ngot %d bytes, want %d bytes", got.Len(), len(want))
	}
}

// TestVerifiedSweep256 runs the full application suite under every
// protocol at 256 nodes / 4KB blocks with verification against the
// sequential reference — the headline scaling claim: node counts past the
// old 64-node ceiling work for every app/protocol pair, not just the
// benchmarked ones.
func TestVerifiedSweep256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node full-matrix sweep skipped in -short mode")
	}
	res, err := dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Granularities: []int{4096},
		Nodes:         256,
		Size:          dsmsim.Small,
	}, dsmsim.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	apps := len(dsmsim.AppNames())
	want := apps * len(dsmsim.Protocols)
	n := 0
	for _, run := range res.Runs {
		if run.Point.Sequential {
			continue
		}
		n++
		if run.Result.Nodes != 256 {
			t.Fatalf("%s/%s ran on %d nodes", run.Point.App, run.Point.Protocol, run.Result.Nodes)
		}
	}
	if n != want {
		t.Fatalf("sweep completed %d runs, want %d (%d apps x %d protocols)", n, want, apps, len(dsmsim.Protocols))
	}
}

// TestVerified1024 runs FFT and LU at the 1024-node bound under every
// registered protocol, verified. This is the acceptance bar for lifting
// ErrBadNodes from 64 to 1024.
func TestVerified1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node verified runs skipped in -short mode")
	}
	for _, app := range []string{"fft", "lu"} {
		for _, proto := range dsmsim.AllProtocols() {
			app, proto := app, proto
			t.Run(fmt.Sprintf("%s/%s", app, proto), func(t *testing.T) {
				t.Parallel()
				cfg := dsmsim.Config{Nodes: 1024, BlockSize: 4096, Protocol: proto}
				res, err := dsmsim.StartApp(context.Background(), cfg, app, dsmsim.Small, dsmsim.WithVerify())
				if err != nil {
					t.Fatal(err)
				}
				if res.Time <= 0 {
					t.Fatalf("run reported non-positive virtual time %v", res.Time)
				}
			})
		}
	}
}

// TestScaleFootprint256 pins the memory contract of the sparse directory
// for every registered protocol: metadata at 256 nodes must stay
// proportional to touched blocks plus a per-node term, never
// O(nodes x blocks). A dense per-node home cache or dense per-block sharer
// vectors would blow these ceilings by an order of magnitude.
func TestScaleFootprint256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node footprint check skipped in -short mode")
	}
	for _, proto := range dsmsim.AllProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := dsmsim.Config{Nodes: 256, BlockSize: 4096, Protocol: proto}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := dsmsim.StartApp(context.Background(), cfg, "fft", dsmsim.Small)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			// Static protocol metadata: sparse tables for a Small FFT heap
			// measure well under 1 MB; 4 MB leaves headroom while a dense
			// nodes x blocks layout at 256 nodes lands far above it.
			const staticCeiling = 4 << 20
			if res.ProtoStaticBytes > staticCeiling {
				t.Errorf("ProtoStaticBytes = %d, ceiling %d", res.ProtoStaticBytes, staticCeiling)
			}
			// Whole-run allocation volume (simulation + metadata, excluding
			// GC reuse): generous 1 GB ceiling, an order of magnitude above
			// current behaviour, to catch reintroduced dense state.
			if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<30 {
				t.Errorf("run allocated %d bytes total, ceiling %d", delta, 1<<30)
			}
		})
	}
}

// TestScaleFootprint1024 pins the lazy protocols' host-memory contract at
// the node bound: LU at 1024 nodes / 4 KB blocks under swlrc and hlrc may
// allocate at most 9 MB more than the same run under sc, every run drawing
// its spaces, image, network and writer sets from what the runs before it
// gave back. What remains beyond sc is the lazy protocols' own: vector
// clocks, write notices and the interval log (hlrc's twins and diffs
// besides). Measured: sc 3.95 MB; swlrc +5.7 MB, hlrc +3.1 MB.
// Synchronization ships write notices by reference into the shared interval
// log, and a node's vector clock is its own entry over the last barrier's
// shared one: a per-receiver copy of the notices at every 1024-way barrier
// adds hundreds of megabytes (it read 70x a whole sc run when each run still
// allocated its network); a dense clock per node and a copy of it per
// arrival add 8 MB, taking either protocol past the ceiling (+13.7 and
// +11.1 MB).
func TestScaleFootprint1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node footprint check skipped in -short mode")
	}
	defer mem.StackSlabs(nil)() // pools the GC cannot empty between runs
	const extraCeiling = 9 << 20
	allocated := func(proto string) uint64 {
		cfg := dsmsim.Config{Nodes: 1024, BlockSize: 4096, Protocol: proto}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dsmsim.StartApp(context.Background(), cfg, "lu", dsmsim.Small)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	lazy := []string{dsmsim.SWLRC, dsmsim.HLRC}
	for _, proto := range append(lazy, dsmsim.SC) {
		allocated(proto) // the pools hold what the hungriest of the three draws
	}
	base := allocated(dsmsim.SC)
	for _, proto := range lazy {
		got := allocated(proto)
		t.Logf("%s allocated %d bytes, %+d beyond sc's %d", proto, got, int64(got)-int64(base), base)
		if got > base+extraCeiling {
			t.Errorf("%s allocated %d bytes beyond sc's run, ceiling %d", proto, got-base, extraCeiling)
		}
	}
}
