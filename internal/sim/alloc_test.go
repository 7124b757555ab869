package sim

import "testing"

// The hot-path contract: once an engine's queues have grown to their working
// size, scheduling and dispatching events allocates nothing — for a later
// instant (the heap, or the timeout lane) or the current one (the now-lane),
// from outside Run or from a callback, with a func(any) and a pointer or with
// a plain func() riding through callFunc — and a lone proc's Sleep is a pure
// clock advance. These tests pin that with testing.AllocsPerRun so a
// regression fails loudly instead of showing up as a benchmark drift.

func TestScheduleDispatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	chain := 0 // at-now events still to be scheduled from inside callbacks
	var fn func()
	fn = func() {
		if chain > 0 {
			chain--
			e.Schedule(e.Now(), fn)
		}
	}
	drive := func() {
		base := e.Now()
		chain = 64
		for i := 0; i < 64; i++ {
			e.Schedule(base+Time(i), fn) // the heap
			e.Schedule(base, fn)         // the lane
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	drive() // grow both queues to steady state
	if avg := testing.AllocsPerRun(100, drive); avg != 0 {
		t.Fatalf("Schedule+dispatch allocated %.1f per 192-event round, want 0", avg)
	}
	if chain != 0 {
		t.Fatalf("%d of the callbacks' own at-now events never ran", chain)
	}
}

func TestScheduleArgZeroAlloc(t *testing.T) {
	e := NewEngine()
	var afn func(arg any)
	afn = func(arg any) {
		if chain := arg.(*int); *chain > 0 {
			*chain--
			e.ScheduleArg(e.Now(), afn, arg)
		}
	}
	chain := new(int)
	drive := func() {
		base := e.Now()
		*chain = 64
		for i := 0; i < 64; i++ {
			e.ScheduleArg(base+Time(i), afn, chain)
			e.ScheduleArg(base, afn, chain)
			// The timeout lane: mostly rising deadlines, every fourth one
			// behind its predecessors, and one due at once.
			e.ScheduleTimeout(base+Time(100+i-5*(i%4/3)), afn, chain)
		}
		e.ScheduleTimeout(base, afn, chain)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	drive()
	if avg := testing.AllocsPerRun(100, drive); avg != 0 {
		t.Fatalf("ScheduleArg+ScheduleTimeout+dispatch allocated %.1f per 257-event round, want 0", avg)
	}
	if *chain != 0 {
		t.Fatalf("%d of the callbacks' own at-now events never ran", *chain)
	}
}

func TestProcSleepSteadyStateZeroAlloc(t *testing.T) {
	// A whole engine + proc + goroutine costs a fixed handful of
	// allocations; 10k sleeps on top must add none. The bound of 50 per
	// run allows the setup while catching even a 0.005 alloc/Sleep leak.
	const sleeps = 10000
	avg := testing.AllocsPerRun(10, func() {
		e := NewEngine()
		e.NewProc("sleeper", 0, func(p *Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(10)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 50 {
		t.Fatalf("engine+proc run with %d sleeps allocated %.1f, want < 50 (Sleep fast path must not allocate)", sleeps, avg)
	}
}
