package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestHooksObserveSchedulingWithoutPerturbing: both hooks fire at the
// right moments, and attaching them changes neither the event order nor
// the final virtual time.
func TestHooksObserveSchedulingWithoutPerturbing(t *testing.T) {
	type run struct {
		finish   Time
		blocks   []string
		unblocks int
	}
	exec := func(withHooks bool) run {
		e := NewEngine()
		var r run
		if withHooks {
			e.SetHooks(Hooks{
				ProcBlock: func(p *Proc, reason string, id int) {
					r.blocks = append(r.blocks, fmt.Sprintf("%s:%s:%d", p.Name(), reason, id))
				},
				ProcUnblock: func(p *Proc) { r.unblocks++ },
			})
		}
		var waiter *Proc
		waiter = e.NewProc("waiter", 0, func(p *Proc) {
			p.Block("waiting for poke")
			p.Sleep(10)
			p.BlockID("waiting for block", 7)
		})
		e.NewProc("poker", 0, func(p *Proc) {
			p.Sleep(100)
			e.Schedule(e.Now(), func() { waiter.Unblock() })
			p.Sleep(100)
			e.Schedule(e.Now(), func() { waiter.Unblock() })
			p.Sleep(1)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		r.finish = e.Now()
		return r
	}

	bare, hooked := exec(false), exec(true)
	if bare.finish != hooked.finish {
		t.Fatalf("hooks perturbed the run: %v vs %v", bare.finish, hooked.finish)
	}
	// The hook sees reason and id as passed, not joined as Reason() would.
	if want := []string{"waiter:waiting for poke:-1", "waiter:waiting for block:7"}; !slices.Equal(hooked.blocks, want) {
		t.Fatalf("ProcBlock observations = %q, want %q", hooked.blocks, want)
	}
	if hooked.unblocks != 2 {
		t.Fatalf("ProcUnblock fired %d times, want 2", hooked.unblocks)
	}
	if bare.blocks != nil || bare.unblocks != 0 {
		t.Fatal("hooks fired without being attached")
	}
}

// TestInterruptPolledEveryStride: the interrupt function is polled once per
// interruptStride dispatches, whichever queue they come from — a chain that
// never leaves the current instant is as interruptible as one that does.
func TestInterruptPolledEveryStride(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(i int) Time
	}{
		{"lane only", func(int) Time { return 0 }},
		{"heap only", func(int) Time { return 1 }},
		{"two in three at now", func(i int) Time { return Time(i % 3 / 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const events = 4*interruptStride + 10
			e := NewEngine()
			polls, ran := 0, 0
			e.SetInterrupt(func() error { polls++; return nil })
			var next func()
			next = func() {
				if ran++; ran < events {
					e.After(tc.step(ran), next)
				}
			}
			e.Schedule(0, next)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if ran != events || polls != events/interruptStride {
				t.Fatalf("%d polls over %d dispatches, want %d over %d", polls, ran, events/interruptStride, events)
			}
		})
	}
}
