package sim

import "testing"

// BenchmarkEngineDispatch measures the raw schedule + dispatch cycle: one
// event scheduling its successor, with a fan of outstanding events so the
// heap has realistic depth. The repository benchmark's sim.dispatch_ns probe
// (bench/) is the tracked counterpart.
func BenchmarkEngineDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const fanout = 64
	scheduled := 0
	var step func()
	step = func() {
		if scheduled < b.N {
			scheduled++
			e.Schedule(e.Now()+Time(scheduled%13+1), step)
		}
	}
	for i := 0; i < fanout && scheduled < b.N; i++ {
		scheduled++
		e.Schedule(Time(i+1), step)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleep measures the proc sleep path: virtual-time advance for
// a lone runnable proc, the common case in Ctx.Compute.
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.NewProc("sleeper", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures the proc handoff: one Block/Unblock round
// trip between two procs is two resume events and four coroutine switches
// (engine → proc → engine, twice) — what every fault, lock acquire and
// barrier pays per blocking event.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	if err := pingPong(b.N).Run(); err != nil {
		b.Fatal(err)
	}
}
