package core_test

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// testProtocols is every registered protocol: the checkpoint and
// critical-path invariants must hold for every registered protocol family,
// not just the reproduction set.
var testProtocols = proto.Names()

// forkApp is one application the fork tests cut at every barrier epoch.
type forkApp struct {
	name     string
	barriers int // at Small size
	// refused lists, per protocol ("" for all of them), the epochs whose cut
	// is refused at the fork tests' 8 nodes and 1024 B blocks: a barrier a
	// phase calls itself, or one entered right after an Unlock whose
	// release is still in flight.
	refused map[string][]int
}

// inFlight is the refusal pattern of an Unlock right before a barrier:
// only the protocols whose release travels as a message of its own (sc,
// its delayed-invalidation sibling dc, tlc) can leave it in flight.
func inFlight(epochs ...int) map[string][]int {
	return map[string][]int{core.SC: epochs, core.DC: epochs, core.TLC: epochs}
}

// forkApps lists every registered application, in registry order, and the
// test-only lockstep app below; TestForkAppsCoverRegistry keeps the list
// whole.
var forkApps = []forkApp{
	{name: "barnes-original", barriers: 8, refused: map[string][]int{core.SC: {6}}},
	// The build's barrier carries each node's private tree into the merge.
	{name: "barnes-partree", barriers: 10, refused: map[string][]int{
		"": {2, 7}, core.SC: {8}, core.DC: {3, 8}, core.TLC: {8}}},
	{name: "barnes-spatial", barriers: 10},
	{name: "fft", barriers: 7},
	{name: "lu", barriers: 24},
	{name: "ocean-original", barriers: 16},
	{name: "ocean-rowwise", barriers: 16},
	{name: "raytrace", barriers: 1, refused: inFlight(1)},
	{name: "volrend-original", barriers: 8, refused: inFlight(2, 3, 6, 7)},
	{name: "volrend-rowwise", barriers: 8, refused: inFlight(2, 3, 6, 7)},
	{name: "water-nsquared", barriers: 8},
	// The integrate phase's barrier carries its moves into the relink.
	{name: "water-spatial", barriers: 8, refused: map[string][]int{"": {3, 7}}},
	{name: "lockstep", barriers: lockStepPhases},
}

// cut checks one cut's outcome against the table: nil where the epoch is
// not refused, a typed refusal where it is. It reports whether the cut was
// taken.
func (a forkApp) cut(t *testing.T, protocol string, e int, err error) bool {
	t.Helper()
	refused := slices.Contains(a.refused[""], e) || slices.Contains(a.refused[protocol], e)
	switch {
	case refused && !errors.Is(err, core.ErrNotResumable):
		t.Fatalf("epoch %d: got %v, want the cut refused with ErrNotResumable", e, err)
	case !refused && err != nil:
		t.Fatalf("epoch %d: %v", e, err)
	}
	return !refused
}

// newForkApp builds the named forkApps entry.
func newForkApp(t *testing.T, name string) core.App {
	if name == "lockstep" {
		return &lockStep{}
	}
	entry, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return entry.New(apps.Small)
}

// TestForkAppsCoverRegistry: every registered application is in forkApps,
// with its barrier count, so a new one is cut at every epoch too.
func TestForkAppsCoverRegistry(t *testing.T) {
	var names []string
	for _, ap := range forkApps[:len(forkApps)-1] {
		names = append(names, ap.name)
	}
	if want := apps.Names(); !slices.Equal(names, want) {
		t.Fatalf("forkApps lists %v, the registry %v", names, want)
	}
	for _, ap := range forkApps[:len(forkApps)-1] {
		m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: core.HLRC})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(newForkApp(t, ap.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := int(res.Total.BarrierEntries) / 8; got != ap.barriers {
			t.Errorf("%s: %d barriers, forkApps says %d", ap.name, got, ap.barriers)
		}
		core.ReleaseImage(res)
	}
}

// lockStep is an app that takes locks between its barriers, each phase
// with a short Compute after its last Unlock so that every epoch can be
// cut under every protocol: the lock-grant path of a forked run — a last
// releaser shipping write notices by reference into a restored log,
// against restored clocks — at every epoch.
type lockStep struct{ base int }

const lockStepPhases, lockStepCounters = 6, 3

func (a *lockStep) Info() core.AppInfo { return core.AppInfo{Name: "lockstep", HeapBytes: 8192} }
func (a *lockStep) Setup(h *core.Heap) { a.base = h.AllocPage(lockStepCounters * 1024) }

// Run is one phase per epoch: two increments of lock-protected counters,
// one counter per block.
func (a *lockStep) Run(c *core.Ctx) {
	c.Phases(lockStepPhases, func(e int) {
		for k := 0; k < 2; k++ {
			l := (c.ID() + e + k) % lockStepCounters
			c.Lock(l)
			c.WriteI64(a.base+l*1024, c.ReadI64(a.base+l*1024)+1)
			c.Unlock(l)
		}
		// Unlock does not wait for the release to reach the lock's home,
		// and a cut needs an empty event queue: let it land first.
		c.Compute(100 * sim.Microsecond)
	})
}

// Verify is never reached: the fork tests compare digests and traces.
func (a *lockStep) Verify(h *core.Heap) error { return nil }

// TestForkDigestEquivalence is the state-equivalence oracle for the
// checkpoint machinery: for every application x protocol and every barrier
// epoch e >= 2, forking at the last epoch before e whose cut was taken and
// continuing to e must reach a machine state whose digest equals a fresh run
// cut at e. Any drift anywhere — clock, sequence numbers, spaces, protocol
// metadata, endpoint state, statistics — changes the digest. A refused
// epoch must be refused both ways.
func TestForkDigestEquivalence(t *testing.T) {
	for _, ap := range forkApps {
		for _, protocol := range testProtocols {
			ap, protocol := ap, protocol
			t.Run(ap.name+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol})
				if err != nil {
					t.Fatal(err)
				}
				app := newForkApp(t, ap.name)
				var chain *core.Checkpoint
				for e := 1; e <= ap.barriers; e++ {
					fresh, err := m.RunToBarrier(ctx, app, e)
					taken := ap.cut(t, protocol, e, err)
					if chain != nil {
						chained, err := m.RunToBarrierFrom(ctx, chain, app, e)
						if ap.cut(t, protocol, e, err) {
							if fd, cd := fresh.Digest(), chained.Digest(); fd != cd {
								t.Fatalf("epoch %d: fork(%d)+continue digest %#x != fresh digest %#x",
									e, chain.Epoch(), cd, fd)
							}
						}
					}
					if taken {
						chain = fresh
					}
				}
			})
		}
	}
}

// TestResumeRefusesAppIgnoringItsEpoch: an app that does not run its body
// through Ctx.Phases cuts like any other, but cannot resume — its Run would
// replay from time zero over the restored state. Whether it reaches a
// barrier first or returns first, the resumed run ends in ErrNotResumable,
// not in a panic, a deadlock or a wrong result.
func TestResumeRefusesAppIgnoringItsEpoch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(c *core.Ctx)
	}{
		{"barrier", func(c *core.Ctx) {
			for e := 0; e < 4; e++ {
				c.Compute(10 * sim.Microsecond)
				c.Barrier()
			}
		}},
		{"return", func(c *core.Ctx) {
			if c.Now() > 0 {
				return // resumed: nothing left from time zero's point of view
			}
			for e := 0; e < 4; e++ {
				c.Compute(10 * sim.Microsecond)
				c.Barrier()
			}
		}},
	} {
		for _, protocol := range testProtocols {
			m, err := core.NewMachine(core.Config{Nodes: 4, BlockSize: 1024, Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			app := &plainApp{run: tc.run}
			cp, err := m.RunToBarrier(ctx, app, 2)
			if err != nil {
				t.Fatalf("%s/%s: RunToBarrier: %v", tc.name, protocol, err)
			}
			if _, err := m.RunFromCheckpoint(ctx, cp, app); !errors.Is(err, core.ErrNotResumable) {
				t.Errorf("%s/%s: RunFromCheckpoint: %v, want ErrNotResumable", tc.name, protocol, err)
			}
			if _, err := m.RunToBarrierFrom(ctx, cp, app, 3); !errors.Is(err, core.ErrNotResumable) {
				t.Errorf("%s/%s: RunToBarrierFrom: %v, want ErrNotResumable", tc.name, protocol, err)
			}
		}
	}
}

// plainApp runs a body that calls Barrier itself.
type plainApp struct{ run func(c *core.Ctx) }

func (a *plainApp) Info() core.AppInfo        { return core.AppInfo{Name: "plain", HeapBytes: 4096} }
func (a *plainApp) Setup(h *core.Heap)        {}
func (a *plainApp) Run(c *core.Ctx)           { a.run(c) }
func (a *plainApp) Verify(h *core.Heap) error { return nil }

// TestForkResultMatchesFlat forks a run at a mid-run barrier and compares
// every deterministic Result field against the flat run — the
// forked-sweep-output-is-byte-identical property at the core level.
func TestForkResultMatchesFlat(t *testing.T) {
	for _, protocol := range testProtocols {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			entry, err := apps.Get("ocean-rowwise")
			if err != nil {
				t.Fatal(err)
			}
			app := entry.New(apps.Small)
			flat, err := m.RunVerifiedContext(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := m.RunToBarrier(ctx, app, 9)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := m.RunFromCheckpoint(ctx, cp, app)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(forked.Heap); err != nil {
				t.Fatal(err)
			}
			compareResults(t, flat, forked)
		})
	}
}

// TestForkWithGatedFaultsMatchesFlat is the sweep-sharing scenario: the
// prefix runs fault-free, each fork attaches its own start-gated fault plan.
// The forked run must be byte-identical to the flat run under the same plan,
// whether the plan arms exactly at the cut epoch or after it.
func TestForkWithGatedFaultsMatchesFlat(t *testing.T) {
	plan, err := faults.Parse("drop=0.02,dup=0.01,jitter=20us,seed=9,start=8")
	if err != nil {
		t.Fatal(err)
	}
	for _, protocol := range testProtocols {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			cfg := core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol, Faults: plan}
			fm, err := core.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = nil
			pm, err := core.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			entry, err := apps.Get("ocean-rowwise")
			if err != nil {
				t.Fatal(err)
			}
			app := entry.New(apps.Small)
			flat, err := fm.RunVerifiedContext(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			// Cut before the plan's start epoch: the fork's own barrier hook
			// arms the plan mid-run, exactly as the flat run does.
			cpEarly, err := pm.RunToBarrier(ctx, app, 5)
			if err != nil {
				t.Fatal(err)
			}
			early, err := fm.RunFromCheckpoint(ctx, cpEarly, app)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, flat, early)
			// Cut exactly at the start epoch: restore arms the plan before
			// the replayed release, matching the flat hook ordering.
			cpAt, err := pm.RunToBarrier(ctx, app, 8)
			if err != nil {
				t.Fatal(err)
			}
			at, err := fm.RunFromCheckpoint(ctx, cpAt, app)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, flat, at)
		})
	}
}

// TestForkGatingRejected: forking under an ungated plan, or under one that
// starts before the checkpoint epoch, must fail with ErrNotResumable — the
// prefix would already have diverged from the flat run.
func TestForkGatingRejected(t *testing.T) {
	ctx := context.Background()
	entry, err := apps.Get("ocean-rowwise")
	if err != nil {
		t.Fatal(err)
	}
	app := entry.New(apps.Small)
	pm, err := core.NewMachine(core.Config{Nodes: 4, BlockSize: 1024, Protocol: core.SC})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pm.RunToBarrier(ctx, app, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"drop=0.01,seed=3", "drop=0.01,seed=3,start=4"} {
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := core.NewMachine(core.Config{Nodes: 4, BlockSize: 1024, Protocol: core.SC, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fm.RunFromCheckpoint(ctx, cp, app); !errors.Is(err, core.ErrNotResumable) {
			t.Errorf("fork under %q: got %v, want ErrNotResumable", spec, err)
		}
	}
}

// TestForkPinsEveryConfigField: a checkpoint pins the whole Config except
// what a fork may change. For each exported field, a machine that differs
// from the capturing one in that field alone is refused with
// ErrNotResumable, unless the field is on the fork-variable list: then the
// fork runs and matches the flat run of its own config. The fields are
// walked by reflection, so a new one is covered without editing the test.
// The what-if scaling is pinned by value, not by pointer.
func TestForkPinsEveryConfigField(t *testing.T) {
	ctx := context.Background()
	app := newForkApp(t, "ocean-rowwise")
	base := core.Config{Nodes: 4, BlockSize: 1024, Protocol: core.SC}
	cp, err := mustMachine(t, base).RunToBarrier(ctx, app, 4)
	if err != nil {
		t.Fatal(err)
	}
	forks := func(cfg core.Config, cp *core.Checkpoint) {
		t.Helper()
		flat, err := mustMachine(t, cfg).RunContext(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := mustMachine(t, cfg).RunFromCheckpoint(ctx, cp, app)
		if err != nil {
			t.Fatalf("fork under %+v: %v", cfg, err)
		}
		compareResults(t, flat, forked)
	}
	variable := map[string]any{
		"Faults": faults.NewPlan(faults.Drop(0.02), faults.Seed(9), faults.StartAtBarrier(6)),
		"Limit":  1000 * sim.Second,
		"Trace":  io.Writer(io.Discard),
	}
	typ := reflect.TypeOf(base)
	for i := range typ.NumField() {
		f := typ.Field(i)
		cfg := base
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		if val, ok := variable[f.Name]; ok {
			delete(variable, f.Name)
			v.Set(reflect.ValueOf(val))
			forks(cfg, cp)
			continue
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64: // still a valid node count, block size, notify
			v.SetInt(max(2*v.Int(), 1))
		case reflect.String: // the protocol
			v.SetString(core.HLRC)
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("Config.%s: no differing value for a %s field; teach the test one", f.Name, v.Kind())
		}
		if _, err := mustMachine(t, cfg).RunFromCheckpoint(ctx, cp, app); !errors.Is(err, core.ErrNotResumable) {
			t.Errorf("Config.%s differs from the checkpoint's: got %v, want ErrNotResumable", f.Name, err)
		}
	}
	for name := range variable {
		t.Errorf("fork-variable field %s is not a Config field", name)
	}

	half, err := critpath.ParseScale("msg=0.5")
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.WhatIf = half
	cpHalf, err := mustMachine(t, scaled).RunToBarrier(ctx, app, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := *half
	scaled.WhatIf = &same
	forks(scaled, cpHalf)
	scaled.WhatIf = &critpath.Scale{Class: half.Class, PPM: half.PPM / 2}
	if _, err := mustMachine(t, scaled).RunFromCheckpoint(ctx, cpHalf, app); !errors.Is(err, core.ErrNotResumable) {
		t.Errorf("fork under another what-if scaling: got %v, want ErrNotResumable", err)
	}
}

// compareResults asserts every deterministic Result field matches between a
// flat run and a forked one. ProtoPeakBytes is exempt: peak twin allocation
// is a whole-run maximum, and a fork only observes the suffix.
func compareResults(t *testing.T, flat, fork *core.Result) {
	t.Helper()
	if flat.Time != fork.Time {
		t.Errorf("Time: flat %v, fork %v", flat.Time, fork.Time)
	}
	for i := range flat.PerNode {
		if flat.PerNode[i] != fork.PerNode[i] {
			t.Errorf("PerNode[%d] differs:\nflat %+v\nfork %+v", i, flat.PerNode[i], fork.PerNode[i])
		}
	}
	if flat.Total != fork.Total {
		t.Errorf("Total differs:\nflat %+v\nfork %+v", flat.Total, fork.Total)
	}
	if flat.NetMsgs != fork.NetMsgs || flat.NetBytes != fork.NetBytes {
		t.Errorf("traffic: flat %d/%d, fork %d/%d", flat.NetMsgs, flat.NetBytes, fork.NetMsgs, fork.NetBytes)
	}
	if flat.MsgLatency != fork.MsgLatency {
		t.Errorf("MsgLatency differs")
	}
	if flat.Retransmits != fork.Retransmits || flat.Timeouts != fork.Timeouts ||
		flat.WireDrops != fork.WireDrops || flat.Duplicates != fork.Duplicates ||
		flat.AcksSent != fork.AcksSent || flat.RetransmitLatency != fork.RetransmitLatency {
		t.Errorf("link-layer totals differ: flat rtx=%d to=%d drop=%d dup=%d ack=%d, fork rtx=%d to=%d drop=%d dup=%d ack=%d",
			flat.Retransmits, flat.Timeouts, flat.WireDrops, flat.Duplicates, flat.AcksSent,
			fork.Retransmits, fork.Timeouts, fork.WireDrops, fork.Duplicates, fork.AcksSent)
	}
	if flat.BlocksWritten != fork.BlocksWritten || flat.MultiWriterBlocks != fork.MultiWriterBlocks {
		t.Errorf("writer classification: flat %d/%d, fork %d/%d",
			flat.BlocksWritten, flat.MultiWriterBlocks, fork.BlocksWritten, fork.MultiWriterBlocks)
	}
	if len(flat.Phases) != len(fork.Phases) {
		t.Fatalf("Phases: flat %d entries, fork %d", len(flat.Phases), len(fork.Phases))
	}
	for i := range flat.Phases {
		if flat.Phases[i] != fork.Phases[i] {
			t.Errorf("Phases[%d]: flat %+v, fork %+v", i, flat.Phases[i], fork.Phases[i])
		}
	}
}
