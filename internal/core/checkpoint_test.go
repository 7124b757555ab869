package core_test

import (
	"context"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// testProtocols is the paper's protocol matrix plus the tlc lease
// extension: the checkpoint and critical-path invariants must hold for
// every registered protocol family, not just the reproduction set.
var testProtocols = append(append([]string(nil), core.Protocols...), core.TLC)

// forkApps lists the resumable applications with their Small-size barrier
// counts; the equivalence chain below walks every epoch of each.
var forkApps = []struct {
	name     string
	barriers int
}{
	{"fft", 7},                   // six-step body: initial barrier + 6 phase barriers
	{"lu", 24},                   // 3 barriers per elimination step, nb = 8
	{"ocean-rowwise", 16},        // 2 colors x 8 iterations
	{"lockstep", lockStepPhases}, // test-only, below: the one that takes locks
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

// lockStep is a resumable app that takes locks between its barriers. The
// registered resumable apps synchronize with barriers only, so without it
// no forked run would reach the lock-grant path: a last releaser shipping
// write notices by reference into a restored log, against restored clocks.
type lockStep struct{ base int }

const lockStepPhases, lockStepCounters = 6, 3

func (a *lockStep) Info() core.AppInfo { return core.AppInfo{Name: "lockstep", HeapBytes: 8192} }
func (a *lockStep) Setup(h *core.Heap) { a.base = h.AllocPage(lockStepCounters * 1024) }
func (a *lockStep) Run(c *core.Ctx)    { a.RunFrom(c, 0) }

// RunFrom implements core.ResumableApp: one barrier per phase, and before
// it two increments of lock-protected counters, one counter per block.
func (a *lockStep) RunFrom(c *core.Ctx, epoch int) {
	for ph := epoch; ph < lockStepPhases; ph++ {
		for k := 0; k < 2; k++ {
			l := (c.ID() + ph + k) % lockStepCounters
			c.Lock(l)
			c.WriteI64(a.base+l*1024, c.ReadI64(a.base+l*1024)+1)
			c.Unlock(l)
		}
		// Unlock does not wait for the release to reach the lock's home,
		// and a cut needs an empty event queue: let it land first.
		c.Compute(100 * sim.Microsecond)
		c.Barrier()
	}
}

// Verify is never reached: the fork tests compare digests and traces.
func (a *lockStep) Verify(h *core.Heap) error { return nil }

// TestForkDigestEquivalence is the state-equivalence oracle for the
// checkpoint machinery: for every application x protocol and every barrier
// epoch e >= 2, forking at epoch e-1 and continuing to e must reach a machine
// state whose digest equals a fresh run cut at e. Any drift anywhere — clock,
// sequence numbers, spaces, protocol metadata, endpoint state, statistics —
// changes the digest.
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
					if err != nil {
						t.Fatalf("RunToBarrier(%d): %v", e, err)
					}
					if chain != nil {
						chained, err := m.RunToBarrierFrom(ctx, chain, app, e)
						if err != nil {
							t.Fatalf("RunToBarrierFrom(%d -> %d): %v", chain.Epoch(), e, err)
						}
						if fd, cd := fresh.Digest(), chained.Digest(); fd != cd {
							t.Fatalf("epoch %d: fork(%d)+continue digest %#x != fresh digest %#x",
								e, chain.Epoch(), cd, fd)
						}
					}
					chain = fresh
				}
			})
		}
	}
}

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
		if _, err := fm.RunFromCheckpoint(ctx, cp, app); !errorsIsNotResumable(err) {
			t.Errorf("fork under %q: got %v, want ErrNotResumable", spec, err)
		}
	}
}

func errorsIsNotResumable(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == core.ErrNotResumable {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
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
