package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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
// exactly what the short run does (engine and two procs, on idle workers).
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

// drainIdleWorkers stops every worker on the idle list, so that a goroutine
// count sees only what runs, and returns how many it stopped. The list keeps
// its capacity.
func drainIdleWorkers() int {
	idle := workers.Swap(nil)
	for _, w := range idle {
		w.stop()
	}
	n := len(idle)
	clear(idle)
	workers.Swap(idle[:0])
	return n
}

// idleWorkers copies the idle list.
func idleWorkers() []*worker {
	idle := workers.Swap(nil)
	workers.Swap(idle)
	return slices.Clone(idle)
}

// waitGoroutines polls until at most want goroutines run, for up to a
// second — a stopped coroutine takes a moment to finish exiting — and
// returns the last count.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestProcCreationAllocCeiling bounds what one proc costs from NewProc
// through its first resume, cold (the idle list drained before each run:
// every proc makes its worker) and warm (every worker comes off the idle
// list). Cold, iter.Pull's share (its escaped state, its closures and the
// coro) is the runtime's to change: the slack absorbs an object or two,
// anything fatter should be seen here, not in the benchmark.
func TestProcCreationAllocCeiling(t *testing.T) {
	const procs = 64
	body := func(p *Proc) { p.Block("parked") }
	build := func(n int) {
		e := NewEngine()
		e.ReserveProcs(n)
		for i := 0; i < n; i++ {
			e.NewProc("p", 0, body)
		}
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) || len(dl.Procs) != n {
			t.Fatalf("Run = %v, want a deadlock of %d procs", err, n)
		}
	}
	cold := func(n int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 10
		var ms runtime.MemStats
		var total uint64
		for i := 0; i < runs; i++ {
			drainIdleWorkers()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			build(n)
			runtime.ReadMemStats(&ms)
			total += ms.Mallocs - before
		}
		return float64(total) / runs
	}
	warm := func(n int) float64 { return testing.AllocsPerRun(10, func() { build(n) }) }

	perProc := (cold(2*procs) - cold(procs)) / procs
	t.Logf("cold: %.2f allocations per proc", perProc)
	// Measured 13 on go1.24: 11 inside iter.Pull, the worker and its bound
	// loop.
	if perProc > 14 {
		t.Errorf("a proc on a new worker costs %.2f allocations from NewProc through its first resume, ceiling 14", perProc)
	}
	perProc = (warm(2*procs) - warm(procs)) / procs
	t.Logf("warm: %.2f allocations per proc", perProc)
	if perProc > 0.5 {
		t.Errorf("a proc on an idle worker costs %.2f allocations from NewProc through its first resume, ceiling 0.5", perProc)
	}
}

// TestRunLeavesNoGoroutines checks that every way out of Run ends every
// body and gives every worker the Run drew back to the idle list — one per
// proc that ran, none for a proc that never did — so that once the list is
// drained, no goroutine is left.
func TestRunLeavesNoGoroutines(t *testing.T) {
	parked := func(p *Proc) { p.Block("forever") }
	sleeper := func(p *Proc) {
		for {
			p.Sleep(10)
		}
	}
	interrupted := errors.New("interrupted")
	cases := []struct {
		name    string
		workers int // procs that ran
		build   func(e *Engine)
		check   func(err error, panicked any) bool
	}{
		{"completion", 2, func(e *Engine) {
			e.NewProc("a", 0, func(p *Proc) { p.Sleep(5) })
			e.NewProc("b", 0, func(p *Proc) { p.Sleep(7) })
		}, func(err error, r any) bool { return err == nil && r == nil }},
		{"deadlock", 2, func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, parked)
		}, func(err error, r any) bool { var dl *DeadlockError; return errors.As(err, &dl) }},
		{"stop", 2, func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("late", 100, parked) // start event discarded by Stop
			e.NewProc("b", 0, sleeper)
			e.Schedule(50, e.Stop)
		}, func(err error, r any) bool { return err == nil && r == nil }},
		{"limit", 2, func(e *Engine) {
			e.SetLimit(1000)
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, sleeper)
		}, func(err error, r any) bool { return err != nil && strings.Contains(err.Error(), "limit") }},
		{"interrupt", 3, func(e *Engine) {
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
		{"proc panic", 3, func(e *Engine) {
			e.NewProc("a", 0, parked)
			e.NewProc("b", 0, parked)
			e.NewProc("bomb", 5, func(p *Proc) { panic("kaboom") })
		}, func(err error, r any) bool { return r != nil }},
		{"born blocked, never resumed", 1, func(e *Engine) {
			e.NewProcBlocked("a", "barrier", -1, parked)
			e.NewProc("b", 0, func(p *Proc) { p.Sleep(5) })
		}, func(err error, r any) bool { var dl *DeadlockError; return errors.As(err, &dl) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drainIdleWorkers()
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
			for _, p := range e.procs {
				if !p.Done() || p.w != nil {
					t.Errorf("proc %s after Run: done %v, holding a worker %v", p.Name(), p.Done(), p.w != nil)
				}
			}
			if back := drainIdleWorkers(); back != tc.workers {
				t.Errorf("%d workers back on the idle list, want one for each of the %d procs that ran", back, tc.workers)
			}
			// Only a rise is a leak: a goroutine an earlier test left behind
			// may exit while this case runs.
			if after := waitGoroutines(before); after > before {
				t.Errorf("%d goroutines after Run, %d before", after, before)
			}
		})
	}
}

// TestWorkerPoolAcrossEngines runs engines on four goroutines at once, as a
// sweep does, all drawing from and giving back to the one idle list: every
// body runs to its end or is killed, on whichever goroutine drew its
// worker. Run it under -race too.
func TestWorkerPoolAcrossEngines(t *testing.T) {
	drainIdleWorkers()
	before := runtime.NumGoroutine()
	const goroutines, engines, rounds = 4, 25, 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range engines {
				e := pingPong(rounds)
				unwound := false
				e.NewProc("parked", Time(i), func(p *Proc) {
					defer func() { unwound = true }()
					p.Block("forever")
				})
				var dl *DeadlockError
				if err := e.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 {
					errs[g] = fmt.Errorf("engine %d: Run = %v, want a deadlock of the parked proc", i, err)
					return
				}
				if !unwound {
					errs[g] = fmt.Errorf("engine %d: the parked proc was not unwound", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	idle := idleWorkers()
	seen := make(map[*worker]bool)
	for _, w := range idle {
		if seen[w] {
			t.Fatal("a worker is on the idle list twice")
		}
		seen[w] = true
	}
	if len(idle) == 0 || len(idle) > 3*goroutines {
		t.Errorf("%d idle workers after %d engines of 3 procs on %d goroutines; want 1 to %d", len(idle), goroutines*engines, goroutines, 3*goroutines)
	}
	drainIdleWorkers()
	if after := waitGoroutines(before); after > before {
		t.Errorf("%d goroutines after the engines, %d before", after, before)
	}
}

// TestRecycledWorkerRunsFreshBody: the worker of a proc that panicked and
// the worker of a proc killed while parked both go back to the idle list,
// and each then runs another proc's body from the top to its end.
func TestRecycledWorkerRunsFreshBody(t *testing.T) {
	drainIdleWorkers()
	var parkedW, bombW *worker
	e := NewEngine()
	e.NewProc("parked", 0, func(p *Proc) {
		parkedW = p.w
		p.Block("forever")
	})
	e.NewProc("bomb", 5, func(p *Proc) {
		bombW = p.w
		panic("kaboom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Run did not re-panic the proc's panic")
			}
		}()
		_ = e.Run()
	}()
	if idle := idleWorkers(); len(idle) != 2 || !slices.Contains(idle, parkedW) || !slices.Contains(idle, bombW) || parkedW == bombW {
		t.Fatalf("idle list %v; want the killed proc's worker %p and the panicked proc's %p", idle, parkedW, bombW)
	}

	e = NewEngine()
	var ranOn []*worker
	ended := 0
	for i := range 2 {
		e.NewProc("fresh", Time(i), func(p *Proc) {
			ranOn = append(ranOn, p.w)
			p.Sleep(10)
			p.Sleep(10)
			ended++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ended != 2 || len(ranOn) != 2 || !slices.Contains(ranOn, parkedW) || !slices.Contains(ranOn, bombW) {
		t.Fatalf("%d of 2 fresh bodies ended, on workers %v; want both, on %p and %p", ended, ranOn, parkedW, bombW)
	}
}

// TestGoexitedWorkerIsNotReused: a body that calls runtime.Goexit ends its
// worker's coroutine with it, so that worker never reaches the idle list —
// a dead one drawn later would return at once without running its body.
func TestGoexitedWorkerIsNotReused(t *testing.T) {
	drainIdleWorkers()
	var quitterW *worker
	var runner sync.WaitGroup
	runner.Add(1)
	go func() {
		defer runner.Done()
		e := NewEngine()
		e.NewProc("sibling", 0, func(p *Proc) { p.Block("forever") })
		e.NewProc("quitter", 0, func(p *Proc) {
			quitterW = p.w
			p.Sleep(5)
			runtime.Goexit()
		})
		_ = e.Run()
	}()
	runner.Wait()
	if idle := idleWorkers(); len(idle) != 1 || idle[0] == quitterW {
		t.Fatalf("idle list %v after a Goexit; want the sibling's worker alone, not the quitter's %p", idle, quitterW)
	}
	e := NewEngine()
	ended := 0
	for range 3 {
		e.NewProc("after", 0, func(p *Proc) {
			p.Sleep(1)
			ended++
		})
	}
	if err := e.Run(); err != nil || ended != 3 {
		t.Fatalf("Run = %v with %d of 3 bodies ended", err, ended)
	}
}

// TestIdleWorkerBound: a run of more procs than the idle list holds gives
// back maxIdleWorkers workers and stops the rest, whose goroutines end.
func TestIdleWorkerBound(t *testing.T) {
	drainIdleWorkers()
	before := runtime.NumGoroutine()
	const extra = 8
	e := NewEngine()
	e.ReserveProcs(maxIdleWorkers + extra)
	for range maxIdleWorkers + extra {
		e.NewProc("p", 0, func(p *Proc) { p.Block("parked") })
	}
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || len(dl.Procs) != maxIdleWorkers+extra {
		t.Fatalf("Run = %v, want a deadlock of %d procs", err, maxIdleWorkers+extra)
	}
	if n := len(idleWorkers()); n != maxIdleWorkers {
		t.Errorf("%d idle workers, bound %d", n, maxIdleWorkers)
	}
	if after := waitGoroutines(before + maxIdleWorkers); after > before+maxIdleWorkers {
		t.Errorf("%d goroutines with %d workers idle, %d before the run: the workers past the bound were not stopped",
			after, maxIdleWorkers, before)
	}
	drainIdleWorkers()
	if after := waitGoroutines(before); after > before {
		t.Errorf("%d goroutines after draining, %d before", after, before)
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
