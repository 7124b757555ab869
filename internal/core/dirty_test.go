package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/proto"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/sim"
)

// cleanPagesAreZero checks the dirty map's invariant on one space through
// the space's public face: every page not marked dirty is all-zero with
// every tag on it NoAccess.
func cleanPagesAreZero(sp *mem.Space) error {
	bs := sp.BlockSize()
	for p, d := range sp.Dirty() {
		if d != 0 {
			continue
		}
		lo := p * mem.PageSize
		hi := min(lo+mem.PageSize, sp.Size())
		if i := firstNonZero(sp.Bytes(lo, hi-lo)); i >= 0 {
			return fmt.Errorf("%d B blocks: clean page %d holds %#x at byte %d", bs, p, sp.Bytes(lo+i, 1)[0], lo+i)
		}
		for b := lo / bs; b <= (hi-1)/bs; b++ {
			if sp.Tag(b) != mem.NoAccess {
				return fmt.Errorf("%d B blocks: clean page %d, block %d is tagged %v", bs, p, b, sp.Tag(b))
			}
		}
	}
	return nil
}

var zeroPage [mem.PageSize]byte

// firstNonZero returns the index of the first non-zero byte of b, or -1. It
// compares a page at a time: the fork chains below pool a slab at every cut.
func firstNonZero(b []byte) int {
	for off := 0; off < len(b); off += len(zeroPage) {
		chunk := b[off:min(off+len(zeroPage), len(b))]
		if !bytes.Equal(chunk, zeroPage[:len(chunk)]) {
			return off + slices.IndexFunc(chunk, func(v byte) bool { return v != 0 })
		}
	}
	return -1
}

// TestCleanPagesZeroAtRelease runs the simulator's whole surface with a
// release hook that checks, on every space about to be recycled, that the
// pages Release is going to skip really are zero and NoAccess — the one
// assumption seeding, write-back, release and snapshots now share. A route
// to a space's bytes that bypasses the map shows here as a named page, not
// as a wrong number three runs later out of the pool.
//
// What Release leaves has to be zero too, and the master image is recycled
// on the same terms (core.Heap's page map, the spaces' merged into it by the
// final write-back), so a second check sees every buffer as it is pooled —
// each space's slab, the verified image of each run here, the one each prefix
// run of the fork chain never shows anybody, the profilers' tables and record
// chunks, the writer sets, and the network's endpoints and link pages — and
// looks for a non-zero byte anywhere in it.
//
// Every registered protocol x {64, 4096, 8192} B x every registered app runs
// with a fault plan and every observer on; then every app as a Sequential
// baseline, and every forkApps entry x protocol across a fork chain cut at
// every epoch (a refused cut skipped), plus one leg from an early cut to the
// end under a start-gated fault plan.
func TestCleanPagesZeroAtRelease(t *testing.T) {
	var mu sync.Mutex
	spaces, buffers, failures := 0, 0, 0
	report := func(err error) {
		if err != nil {
			if failures++; failures <= 5 {
				t.Error(err)
			}
		}
	}
	defer core.SetReleaseHook(func(sp *mem.Space) {
		err := cleanPagesAreZero(sp)
		mu.Lock()
		defer mu.Unlock()
		spaces++
		report(err)
	})()
	defer mem.IsolatePools(func(whole []byte) {
		var err error
		if i := firstNonZero(whole); i >= 0 {
			err = fmt.Errorf("pooled buffer of %d bytes holds %#x at byte %d (page %d)", len(whole), whole[i], i, i/mem.PageSize)
		}
		mu.Lock()
		defer mu.Unlock()
		buffers++
		report(err)
	})()

	lossy, err := faults.Parse("drop=0.01,dup=0.005,jitter=20us,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	gated, err := faults.Parse("drop=0.02,dup=0.01,jitter=20us,seed=9,start=2")
	if err != nil {
		t.Fatal(err)
	}
	blocks := []int{64, 4096, 8192}
	if testing.Short() {
		blocks = []int{8192}
	}
	const nodes = 4
	ctx := context.Background()
	run := func(t *testing.T, cfg core.Config, app core.App) {
		t.Helper()
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunVerified(app); err != nil {
			t.Fatal(err)
		}
	}
	for _, entry := range apps.All() {
		for _, bs := range blocks {
			t.Run(fmt.Sprintf("%s/%d", entry.Name, bs), func(t *testing.T) {
				for _, protocol := range proto.Names() {
					run(t, core.Config{
						Nodes: nodes, BlockSize: bs, Protocol: protocol, Faults: lossy,
						Trace: io.Discard, SampleEvery: sim.Millisecond,
						ShareProfile: true, CritPath: true,
					}, entry.New(apps.Small))
				}
				run(t, core.Config{BlockSize: bs, Sequential: true}, entry.New(apps.Small))
			})
		}
	}
	for _, ap := range forkApps {
		for _, bs := range blocks {
			t.Run(fmt.Sprintf("fork/%s/%d", ap.name, bs), func(t *testing.T) {
				for _, protocol := range proto.Names() {
					cfg := core.Config{
						Nodes: nodes, BlockSize: bs, Protocol: protocol,
						Trace: io.Discard, SampleEvery: sim.Millisecond, CritPath: true,
					}
					prefix, err := core.NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = gated
					faulty, err := core.NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Cut at every epoch, each leg forked from the last cut
					// taken; the plan arms at barrier 2, so the faulty leg
					// forks from the last cut taken by then.
					app := newForkApp(t, ap.name)
					var cp, early *core.Checkpoint
					for e := 1; e <= ap.barriers; e++ {
						var next *core.Checkpoint
						if cp == nil {
							next, err = prefix.RunToBarrier(ctx, app, e)
						} else {
							next, err = prefix.RunToBarrierFrom(ctx, cp, app, e)
						}
						if errors.Is(err, core.ErrNotResumable) {
							continue
						}
						if err != nil {
							t.Fatalf("%s: epoch %d: %v", protocol, e, err)
						}
						if cp = next; e <= gated.StartBarrier() {
							early = cp
						}
					}
					if early == nil {
						continue
					}
					res, err := faulty.RunFromCheckpoint(ctx, early, app)
					if err != nil {
						t.Fatal(err)
					}
					core.ReleaseImage(res)
				}
			})
		}
	}
	if spaces == 0 || buffers <= spaces {
		t.Fatalf("the release checks saw %d spaces and %d pooled buffers; want every space's slab and more", spaces, buffers)
	}
	t.Logf("%d spaces checked before release, %d buffers after: their slabs and %d master images, observer tables, record chunks, writer sets, endpoints and link pages", spaces, buffers, buffers-spaces)
}

// TestRunDirtyFootprint pins the traffic assumption the dirty map's saving
// rests on: a run touches a small part of the heap it reserves, and the map
// marks little more than what was touched. At 16 nodes and 1024 B blocks,
// summed over the spaces of barnes-original and lu, at most 15 % of the pages
// may be dirty at release (measured 4.6 %: barnes 3.1 % of 645 pages a
// space; lu 28.8 % of 40, of which 25.9 % hold matrix bytes — every node
// reads the pivot row and column); and in each run the dirty pages may
// exceed the pages that hold a non-zero byte by at most 15 % (measured 0 and
// 11 %: tags that left NoAccess over data that is still zero). Marking that
// creeps wider — a whole-space pass that hands out every block, a hand-out
// on a path that only looks — brings Release, the final write-back and
// every checkpoint back to whole-heap cost long before a test of contents
// fails.
func TestRunDirtyFootprint(t *testing.T) {
	const ceiling, slack = 0.15, 1.15
	var dirty, nonzero, pages int
	defer core.SetReleaseHook(func(sp *mem.Space) {
		for p, d := range sp.Dirty() {
			pages++
			if d == 0 {
				continue
			}
			dirty++
			lo := p * mem.PageSize
			if bytes.ContainsFunc(sp.Bytes(lo, min(mem.PageSize, sp.Size()-lo)), func(r rune) bool { return r != 0 }) {
				nonzero++
			}
		}
	})()
	for _, protocol := range proto.Names() {
		dirty, pages = 0, 0
		for _, name := range []string{"barnes-original", "lu"} {
			entry, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachine(core.Config{Nodes: 16, BlockSize: 1024, Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			dirty0 := dirty
			nonzero = 0
			if _, err := m.RunVerified(entry.New(apps.Small)); err != nil {
				t.Fatal(err)
			}
			if d := dirty - dirty0; float64(d) > slack*float64(nonzero) {
				t.Errorf("%s/%s: %d pages dirty at release, %d of them non-zero: more than %.0f %% over",
					name, protocol, d, nonzero, 100*(slack-1))
			}
		}
		share := float64(dirty) / float64(max(pages, 1))
		t.Logf("%s: %d of %d pages dirty at release (%.1f %%)", protocol, dirty, pages, 100*share)
		if pages == 0 || share > ceiling {
			t.Errorf("%s: %.1f %% of pages dirty at release, ceiling %.0f %%", protocol, 100*share, 100*ceiling)
		}
	}
}

// TestRecycledImageRunsLikeFresh runs lu on slabs the runtime has just
// zeroed, gives them back, runs barnes-original (a 16x larger image, which
// lu's cannot serve, with particles and a cell pool the run scribbles over)
// and gives that back, then runs lu again out of the pools: the second lu
// must draw barnes's slabs, cut down to its own size, and produce the first
// one's final image, line trace and counters byte for byte. With the fork
// chain of TestCleanPagesZeroAtRelease and the commit-anchored constants of
// apps.TestGoldenTraceDigests, whose runs also hand their images on, this is
// what says a pooled image is indistinguishable from a fresh one.
func TestRecycledImageRunsLikeFresh(t *testing.T) {
	defer mem.IsolatePools(nil)() // starts empty: the first run must allocate

	const nodes = 4
	type outcome struct {
		image, trace   [sha256.Size]byte
		time           sim.Time
		msgs, bytes    int64
		spaces, master mem.PoolCounts
	}
	run := func(name string) outcome {
		entry, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var line bytes.Buffer
		m, err := core.NewMachine(core.Config{Nodes: nodes, BlockSize: 1024, Protocol: core.HLRC, Trace: &line})
		if err != nil {
			t.Fatal(err)
		}
		spaces0, _, master0 := mem.SlabStats()
		app := entry.New(apps.Small)
		res, err := m.Run(app) // unverified: a verified run hands back no image to hash
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(res.Heap); err != nil {
			t.Fatal(err)
		}
		spaces, _, master := mem.SlabStats()
		out := outcome{
			image: sha256.Sum256(res.Heap.Bytes(0, res.Heap.Used())),
			trace: sha256.Sum256(line.Bytes()),
			time:  res.Time, msgs: res.NetMsgs, bytes: res.NetBytes,
			spaces: mem.PoolCounts{Hits: spaces.Hits - spaces0.Hits, Misses: spaces.Misses - spaces0.Misses},
			master: mem.PoolCounts{Hits: master.Hits - master0.Hits, Misses: master.Misses - master0.Misses},
		}
		core.ReleaseImage(res)
		if res.Heap != nil {
			t.Fatal("ReleaseImage left Result.Heap set")
		}
		return out
	}
	fresh := run("lu")
	run("barnes-original")
	recycled := run("lu")
	allocated, drawn := mem.PoolCounts{Misses: nodes}, mem.PoolCounts{Hits: nodes}
	if fresh.spaces != allocated || fresh.master != (mem.PoolCounts{Misses: 1}) ||
		recycled.spaces != drawn || recycled.master != (mem.PoolCounts{Hits: 1}) {
		t.Fatalf("the first lu's spaces and image (hits, misses): %v and %v, the second's %v and %v; want every slab allocated, then every slab recycled",
			fresh.spaces, fresh.master, recycled.spaces, recycled.master)
	}
	recycled.spaces, recycled.master = fresh.spaces, fresh.master
	if recycled != fresh {
		t.Errorf("lu on recycled slabs differs from lu on fresh ones:\nfresh    %+v\nrecycled %+v", fresh, recycled)
	}
}

// TestRecycledObserverStateRunsLikeFresh is TestRecycledImageRunsLikeFresh for
// the observers. lu runs at 16 nodes and 256 B, where its path fills two
// record chunks, with the sharing profiler, the critical-path profiler and a
// line trace on, from a cold pool; barnes-original, whose heap
// and path need longer tables and more record chunks, gives back what it drew;
// then lu runs again and must draw every table and chunk it uses from the
// pools, cut down from barnes's, and produce the first lu's sharing profile,
// critical path and trace byte for byte. The network's and the writer sets'
// buffers are counted with the observers' and held to the same. Every buffer
// that arrives at a pool, the slabs' and the others', must be all-zero.
func TestRecycledObserverStateRunsLikeFresh(t *testing.T) {
	var dirty []string
	defer mem.IsolatePools(func(whole []byte) {
		if i := firstNonZero(whole); i >= 0 {
			dirty = append(dirty, fmt.Sprintf("a pooled buffer of %d bytes holds %#x at byte %d", len(whole), whole[i], i))
		}
	})() // starts empty: the first run must allocate

	type outcome struct {
		sharing *shareprof.Report
		crit    *critpath.Report
		trace   [sha256.Size]byte
		drawn   mem.PoolCounts // from the observers' pools
	}
	minus := func(a, b mem.PoolCounts) mem.PoolCounts {
		return mem.PoolCounts{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
	}
	observers := func() mem.PoolCounts { // every pool's counts but the slabs': the observers', the network's, the writer sets'
		spaces, structs, images := mem.SlabStats()
		return minus(minus(minus(mem.PoolTotals(), spaces), structs), images)
	}
	run := func(name string) outcome {
		entry, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var line bytes.Buffer
		m, err := core.NewMachine(core.Config{Nodes: 16, BlockSize: 256, Protocol: core.HLRC,
			Trace: &line, ShareProfile: true, CritPath: true})
		if err != nil {
			t.Fatal(err)
		}
		drawn0 := observers()
		res, err := m.RunVerified(entry.New(apps.Small))
		if err != nil {
			t.Fatal(err)
		}
		drawn := minus(observers(), drawn0)
		return outcome{res.Sharing, res.CritPath, sha256.Sum256(line.Bytes()), drawn}
	}
	fresh := run("lu")
	run("barnes-original")
	recycled := run("lu")
	t.Logf("lu drew %d observer tables and chunks, network and writer buffers", fresh.drawn.Misses)
	if fresh.drawn.Hits != 0 || fresh.drawn.Misses == 0 || recycled.drawn != (mem.PoolCounts{Hits: fresh.drawn.Misses}) {
		t.Fatalf("the first lu's observer draws (hits, misses): %v, the second's %v; want every table and chunk allocated, then every one recycled",
			fresh.drawn, recycled.drawn)
	}
	if !reflect.DeepEqual(recycled.sharing, fresh.sharing) {
		t.Errorf("lu's sharing profile on recycled tables differs:\nfresh    %+v\nrecycled %+v", fresh.sharing, recycled.sharing)
	}
	if !reflect.DeepEqual(recycled.crit, fresh.crit) {
		t.Errorf("lu's critical path on recycled chunks differs:\nfresh    %+v\nrecycled %+v", fresh.crit, recycled.crit)
	}
	if recycled.trace != fresh.trace {
		t.Errorf("lu's trace on recycled observer state differs: sha256 %x, fresh %x", recycled.trace, fresh.trace)
	}
	for _, d := range dirty[:min(len(dirty), 5)] {
		t.Error(d)
	}
}

// TestRecycledShardsRunLikeFresh is TestRecycledImageRunsLikeFresh for the
// directory shards, under every registered protocol: lu runs at 8 nodes and
// 256 B from cold shard pools, barnes-original (a heap 16x larger, so more
// shards of every entry type) gives back what it drew, then lu runs again
// and must draw every shard it uses from the pools. Each lu is cut at
// barrier 2, whose checkpoint digest folds every directory, home-map and
// per-node table, and run whole with a line trace: the recycled lu's
// digest, trace, final image, Result and footprint must be the fresh one's.
// Every buffer that arrives at a pool, shards among them, must be all-zero.
func TestRecycledShardsRunLikeFresh(t *testing.T) {
	type outcome struct {
		cut          uint64
		image, trace [sha256.Size]byte
		res          *core.Result
		shards       mem.PoolCounts
	}
	for _, protocol := range proto.Names() {
		t.Run(protocol, func(t *testing.T) {
			var dirty []string
			defer mem.IsolatePools(func(whole []byte) {
				if i := firstNonZero(whole); i >= 0 {
					dirty = append(dirty, fmt.Sprintf("a pooled buffer of %d bytes holds %#x at byte %d", len(whole), whole[i], i))
				}
			})() // starts empty: the first run must allocate
			machine := func(cfg core.Config) *core.Machine {
				m, err := core.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			run := func(name string) outcome {
				entry, err := apps.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				var line bytes.Buffer
				cfg := core.Config{Nodes: 8, BlockSize: 256, Protocol: protocol, Limit: 2000 * sim.Second}
				shards0 := proto.ShardStats()
				cut, err := machine(cfg).RunToBarrier(context.Background(), entry.New(apps.Small), 2)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = &line
				app := entry.New(apps.Small)
				res, err := machine(cfg).Run(app)
				if err != nil {
					t.Fatal(err)
				}
				if err := app.Verify(res.Heap); err != nil {
					t.Fatal(err)
				}
				image := sha256.Sum256(res.Heap.Bytes(0, res.Heap.Used()))
				core.ReleaseImage(res)
				shards := proto.ShardStats()
				return outcome{cut.Digest(), image, sha256.Sum256(line.Bytes()), res,
					mem.PoolCounts{Hits: shards.Hits - shards0.Hits, Misses: shards.Misses - shards0.Misses}}
			}
			fresh := run("lu")
			run("barnes-original")
			recycled := run("lu")
			// The whole run draws what the cut gave back, so the first lu
			// allocates once and draws each shard a second time.
			drawn := fresh.shards.Hits + fresh.shards.Misses
			t.Logf("lu drew %d shards, %d of them allocated", drawn, fresh.shards.Misses)
			if fresh.shards.Misses == 0 || recycled.shards != (mem.PoolCounts{Hits: drawn}) {
				t.Fatalf("the first lu's shard draws (hits, misses): %v, the second's %v; want shards allocated, then every one recycled",
					fresh.shards, recycled.shards)
			}
			if recycled.cut != fresh.cut {
				t.Errorf("lu's checkpoint at barrier 2 on recycled shards has digest %#x, fresh %#x", recycled.cut, fresh.cut)
			}
			if recycled.image != fresh.image || recycled.trace != fresh.trace {
				t.Errorf("lu on recycled shards left a different image or trace")
			}
			if !reflect.DeepEqual(recycled.res, fresh.res) {
				t.Errorf("lu's Result on recycled shards differs:\nfresh    %+v\nrecycled %+v", fresh.res, recycled.res)
			}
			for _, d := range dirty[:min(len(dirty), 5)] {
				t.Error(d)
			}
		})
	}
}

// TestRecycledLogRunsLikeFresh is TestRecycledImageRunsLikeFresh for the
// interval log, under the two protocols that publish write notices. From a
// cold pool, lu is cut at barrier 2 and run whole at 16 nodes; lu then runs
// at 1024 nodes and gives back a log whose first 16 interval arrays are
// longer than the 16-node run's; lu runs at 16 nodes again, must draw that
// log, and must produce the first run's Result. A second cut, drawn the same
// way, must have the first one's digest, which folds every interval of the
// log. Then water-nsquared and the 1024-node lu publish into the log the
// cut gave back, and the fork restored from the cut must produce the flat
// run's Result.
func TestRecycledLogRunsLikeFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs skipped in -short mode")
	}
	ctx := context.Background()
	for _, protocol := range []string{core.HLRC, core.SWLRC} {
		t.Run(protocol, func(t *testing.T) {
			defer mem.IsolatePools(nil)() // starts empty: the first run must allocate
			machine := func(nodes int) *core.Machine {
				m, err := core.NewMachine(core.Config{Nodes: nodes, BlockSize: 1024, Protocol: protocol})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			entry, err := apps.Get("lu")
			if err != nil {
				t.Fatal(err)
			}
			lu := func() core.App { return entry.New(apps.Small) }
			run := func(nodes int, app core.App) *core.Result {
				res, err := machine(nodes).RunVerifiedContext(ctx, app)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cut := func() *core.Checkpoint {
				cp, err := machine(16).RunToBarrier(ctx, lu(), 2)
				if err != nil {
					t.Fatal(err)
				}
				return cp
			}
			freshCut := cut()
			fresh := run(16, lu())
			run(1024, lu())
			logs0 := proto.LogStats()
			recycled := run(16, lu())
			if logs := proto.LogStats(); logs.Hits-logs0.Hits != 1 || logs.Misses != logs0.Misses {
				t.Fatalf("the second 16-node lu drew %d logs from the pool and allocated %d; want the 1024-node run's log",
					logs.Hits-logs0.Hits, logs.Misses-logs0.Misses)
			}
			compareResults(t, fresh, recycled)

			run(1024, lu())
			cp := cut()
			if cp.Digest() != freshCut.Digest() {
				t.Errorf("lu's cut at barrier 2 on a recycled log has digest %#x, on a fresh one %#x", cp.Digest(), freshCut.Digest())
			}
			water, err := apps.Get("water-nsquared")
			if err != nil {
				t.Fatal(err)
			}
			run(16, water.New(apps.Small))
			run(1024, lu())
			app := lu()
			forked, err := machine(16).RunFromCheckpoint(ctx, cp, app)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(forked.Heap); err != nil {
				t.Fatal(err)
			}
			compareResults(t, fresh, forked)
		})
	}
}
