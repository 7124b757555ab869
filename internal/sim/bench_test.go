package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineDispatch measures the raw schedule + dispatch cycle with a
// standing population of outstanding events, so both queues work at a
// realistic depth. "future" is the shape of the repository benchmark's
// sim.dispatch_ns probe (bench/), its tracked counterpart: closures, every
// event for a later instant, 64 outstanding. "mix" is the traffic the
// protocols generate: func(any) + pointer events, one in three scheduled
// for the instant that is already current (an Unblock, a service start on
// an idle endpoint), at the depths measured at 16 nodes, under ARQ timers
// and at 1024 nodes. "timeouts" is the queue under a fault plan: one event in
// five is a retransmission timer, armed through ScheduleTimeout for ten times
// as far out as the rest, so about 45 of the 64 outstanding events are timers
// waiting in the timeout lane and the heap holds the other 20.
func BenchmarkEngineDispatch(b *testing.B) {
	b.Run("future/depth=64", func(b *testing.B) {
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
	})
	for _, depth := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("mix/depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			m := &dispatchMix{e: NewEngine(), left: b.N}
			for i := 0; i < depth && m.left > 0; i++ {
				m.left--
				m.e.ScheduleArg(Time(i%13+1), mixTimed, m)
			}
			if err := m.e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("timeouts/depth=64", func(b *testing.B) {
		b.ReportAllocs()
		m := &dispatchMix{e: NewEngine(), left: b.N}
		for i := 0; i < 64 && m.left > 0; i++ {
			m.left--
			m.e.ScheduleArg(Time(i%13+1), mixTimeout, m)
		}
		if err := m.e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// dispatchMix is the state of one "mix" run: left events still to schedule.
type dispatchMix struct {
	e     *Engine
	left  int
	timed int
}

// mixTimed keeps the standing population constant by scheduling its own
// successor a few ns out, and every second one of them also schedules an
// event for the current instant: one event in three.
func mixTimed(arg any) {
	m := arg.(*dispatchMix)
	if m.left > 0 {
		m.left--
		m.timed++
		m.e.ScheduleArg(m.e.Now()+Time(m.timed%13+1), mixTimed, m)
	}
	if m.timed%2 == 0 && m.left > 0 {
		m.left--
		m.e.ScheduleArg(m.e.Now(), mixNow, m)
	}
}

func mixNow(any) {}

// mixTimeout keeps the standing population constant by scheduling its own
// successor: four times out of five an ordinary event a few ns out, the fifth
// time a timeout ten times as far.
func mixTimeout(arg any) {
	m := arg.(*dispatchMix)
	if m.left == 0 {
		return
	}
	m.left--
	m.timed++
	d := Time(m.timed%13 + 1)
	if m.timed%5 == 0 {
		m.e.ScheduleTimeout(m.e.Now()+10*d, mixTimeout, m)
	} else {
		m.e.ScheduleArg(m.e.Now()+d, mixTimeout, m)
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
