package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pingPong builds an engine on which procs a and b hand the baton back and
// forth rounds times through Block/Unblock — two proc switches per round,
// the shape of every fault round trip and lock handoff.
func pingPong(rounds int) *Engine {
	e := NewEngine()
	var a, b *Proc
	b = e.NewProc("b", 0, func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Block("pong")
			a.Unblock()
		}
	})
	a = e.NewProc("a", 1, func(p *Proc) {
		for i := 0; i < rounds; i++ {
			b.Unblock()
			p.Block("ping")
		}
	})
	return e
}

// TestProcSwitchSteadyStateZeroAlloc pins the Block/Unblock handoff itself
// at zero allocations: a run with 100x the round trips must allocate
// exactly what the short run does (engine, two procs, two coroutines).
func TestProcSwitchSteadyStateZeroAlloc(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := pingPong(rounds).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(10000)
	if long != short {
		t.Fatalf("10000 round trips allocated %.1f, 100 allocated %.1f: a proc switch must not allocate", long, short)
	}
}

// TestProcCreationAllocCeiling bounds what one proc costs from NewProc
// through its first resume. iter.Pull's share (its escaped state, its
// closures and the coro) is the runtime's to change: the slack absorbs an
// object or two, anything fatter should be seen here, not in the benchmark.
func TestProcCreationAllocCeiling(t *testing.T) {
	const procs = 64
	build := func(n int) float64 {
		body := func(p *Proc) { p.Block("parked") }
		return testing.AllocsPerRun(10, func() {
			e := NewEngine()
			e.ReserveProcs(n)
			for i := 0; i < n; i++ {
				e.NewProc("p", 0, body)
			}
			var dl *DeadlockError
			if err := e.Run(); !errors.As(err, &dl) || len(dl.Procs) != n {
				t.Fatalf("Run = %v, want a deadlock of %d procs", err, n)
			}
		})
	}
	perProc := (build(2*procs) - build(procs)) / procs
	t.Logf("%.2f allocations per proc", perProc)
	// Measured 12 on go1.24: 11 inside iter.Pull and the bound p.run.
	if perProc > 14 {
		t.Errorf("a proc costs %.2f allocations from NewProc through its first resume, ceiling 14", perProc)
	}
}

// TestRunLeavesNoGoroutines checks that every way out of Run takes the
// procs' coroutines with it, including procs that never ran.
func TestRunLeavesNoGoroutines(t *testing.T) {
	parked := func(p *Proc) { p.Block("forever") }
	sleeper := func(p *Proc) {
		for {
			p.Sleep(10)
		}
	}
	interrupted := errors.New("interrupted")
	cases := []struct {
		name  string
		build func(e *Engine)
		check func(err error, panicked any) bool
	}{
		{"completion", func(e *Engine) {
			e.NewProc("a", 0, func(p *Proc) { p.Sleep(5) })
			e.NewProc("b", 0, func(p *Proc) { p.Sleep(7) })
		}, func(err error, r any) bool { return err == nil && r == nil }},
		{"deadlock", func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, parked)
		}, func(err error, r any) bool { var dl *DeadlockError; return errors.As(err, &dl) }},
		{"stop", func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("late", 100, parked) // start event discarded by Stop
			e.NewProc("b", 0, sleeper)
			e.Schedule(50, e.Stop)
		}, func(err error, r any) bool { return err == nil && r == nil }},
		{"limit", func(e *Engine) {
			e.SetLimit(1000)
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, sleeper)
		}, func(err error, r any) bool { return err != nil && strings.Contains(err.Error(), "limit") }},
		{"interrupt", func(e *Engine) {
			polls := 0
			e.SetInterrupt(func() error {
				if polls++; polls > 3 {
					return interrupted
				}
				return nil
			})
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, sleeper)
			e.NewProc("c", 0, sleeper) // two sleepers: no in-place fast path
		}, func(err error, r any) bool { return errors.Is(err, interrupted) }},
		{"proc panic", func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, parked)
			e.NewProc("bomb", 5, func(p *Proc) { panic("kaboom") })
		}, func(err error, r any) bool { return r != nil }},
		{"born blocked, never resumed", func(e *Engine) {
			e.NewProcBlocked("a", "barrier", -1, parked)
			e.NewProc("b", 0, func(p *Proc) { p.Sleep(5) })
		}, func(err error, r any) bool { var dl *DeadlockError; return errors.As(err, &dl) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			tc.build(e)
			var err error
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				err = e.Run()
			}()
			if !tc.check(err, panicked) {
				t.Fatalf("Run = %v (panic %v): not the exit path this case is for", err, panicked)
			}
			// Only a rise is a leak: a goroutine an earlier test left behind
			// may exit while this case runs. A coroutine stopped on the way
			// out gets a moment to finish exiting before the rise counts.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if after > before {
				t.Errorf("%d goroutines after Run, %d before", after, before)
			}
			for _, p := range e.procs {
				if !p.Done() {
					t.Errorf("proc %s not done after Run", p.Name())
				}
			}
		})
	}
}

// TestGoexitInBodyEndsRunner: runtime.Goexit inside a body (what t.FailNow
// and t.Fatal do) must end the goroutine that called Run — after unwinding
// the sibling procs — not leave it waiting for a baton that never returns.
func TestGoexitInBodyEndsRunner(t *testing.T) {
	var returned, siblingUnwound bool
	var runner sync.WaitGroup
	runner.Add(1)
	go func() {
		defer runner.Done()
		e := NewEngine()
		e.NewProc("sibling", 0, func(p *Proc) {
			defer func() { siblingUnwound = true }()
			p.Block("forever")
		})
		e.NewProc("quitter", 0, func(p *Proc) {
			p.Sleep(5)
			runtime.Goexit()
		})
		_ = e.Run()
		returned = true
	}()
	runner.Wait() // a hang here is the failure; the test timeout reports it
	if returned {
		t.Error("Run returned although a body called runtime.Goexit")
	}
	if !siblingUnwound {
		t.Error("sibling proc was not unwound")
	}
}
