package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastClamps(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func() {
		e.Schedule(50, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("past event ran at %v, want clamped to 100", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.NewProc("a", 0, func(p *Proc) {
		trace = append(trace, fmt.Sprintf("a0@%d", p.Now()))
		p.Sleep(100)
		trace = append(trace, fmt.Sprintf("a1@%d", p.Now()))
		p.Sleep(50)
		trace = append(trace, fmt.Sprintf("a2@%d", p.Now()))
	})
	e.NewProc("b", 10, func(p *Proc) {
		trace = append(trace, fmt.Sprintf("b0@%d", p.Now()))
		p.Sleep(120)
		trace = append(trace, fmt.Sprintf("b1@%d", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0@0 b0@10 a1@100 b1@130 a2@150"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine()
	var p1 *Proc
	var wokenAt Time
	p1 = e.NewProc("waiter", 0, func(p *Proc) {
		p.Block("waiting for signal")
		wokenAt = p.Now()
	})
	e.Schedule(500, func() { p1.Unblock() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 500 {
		t.Fatalf("woken at %v, want 500", wokenAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.NewProc("stuck", 0, func(p *Proc) {
		p.Block("never signalled")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || de.Procs[0].Reason != "never signalled" {
		t.Fatalf("blocked = %v", de.Procs)
	}
	if want := "sim: deadlock, 1 procs blocked: [stuck (never signalled)]"; de.Error() != want {
		t.Fatalf("Error() = %q, want %q", de.Error(), want)
	}
}

func TestTimeLimit(t *testing.T) {
	e := NewEngine()
	e.SetLimit(1000)
	e.NewProc("runaway", 0, func(p *Proc) {
		for {
			p.Sleep(300)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want limit error", err)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.NewProc("worker", 0, func(p *Proc) {
		for {
			n++
			if n == 3 {
				e.Stop()
			}
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3 (Stop should halt promptly)", n)
	}
}

// TestStopMidLane: a Stop from an event of the current instant leaves the
// rest of that instant undispatched, exactly as a Stop from a timed event
// leaves the later ones — in the heap or in the timeout lane — and Run
// returns with nothing queued either way.
func TestStopMidLane(t *testing.T) {
	for _, tc := range []struct {
		name     string
		at       func(i int) Time
		schedule func(e *Engine, at Time, fn func())
	}{
		{"lane", func(int) Time { return 0 }, (*Engine).Schedule},
		{"heap", func(i int) Time { return Time(10 * (i + 1)) }, (*Engine).Schedule},
		{"timeouts", func(i int) Time { return Time(10 * (i + 1)) },
			func(e *Engine, at Time, fn func()) { e.ScheduleTimeout(at, callFunc, fn) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var ran []int
			for i := 0; i < 4; i++ {
				tc.schedule(e, tc.at(i), func() {
					ran = append(ran, i)
					if i == 1 {
						e.Stop()
						tc.schedule(e, e.Now(), func() { ran = append(ran, -1) })
						tc.schedule(e, e.Now()+5, func() { ran = append(ran, -2) })
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if want := []int{0, 1}; !slices.Equal(ran, want) {
				t.Fatalf("ran %v, want %v: Stop must halt after the current event", ran, want)
			}
			if n := e.PendingEvents(); n != 0 {
				t.Fatalf("%d events still queued after Run: Stop discards them", n)
			}
		})
	}
}

// kaboom is a named frame for TestProcPanicPropagates to find in the stack.
//
//go:noinline
func kaboom() { panic("kaboom") }

// TestProcPanicPropagates checks what Run re-panics with when a body
// panics: the proc's name, the panic value, and the body's own stack (the
// engine's stack at that moment would only show the resume).
func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.NewProc("bomb", 0, func(p *Proc) {
		p.Sleep(5)
		kaboom()
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate to Run")
		}
		report := fmt.Sprint(r)
		for _, want := range []string{"proc bomb panicked", "kaboom", "sim.kaboom(", "TestProcPanicPropagates.func1"} {
			if !strings.Contains(report, want) {
				t.Errorf("panic report lacks %q:\n%s", want, report)
			}
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned normally")
}

func TestDoubleBlockPanics(t *testing.T) {
	e := NewEngine()
	e.NewProc("dup", 0, func(p *Proc) {
		p.blocked = true // simulate corruption
		defer func() {
			if recover() == nil {
				t.Error("double Block did not panic")
			}
			p.blocked = false
		}()
		p.Block("again")
	})
	_ = e.Run()
}

func TestUnblockNonBlockedPanics(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("idle", 0, func(p *Proc) {})
	e.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Unblock of non-blocked proc did not panic")
			}
		}()
		p.Unblock()
	})
	_ = e.Run()
}

// TestDeterminism runs an identical mixed workload twice and requires
// bit-identical traces.
func TestDeterminism(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var trace []string
		var procs []*Proc
		for i := 0; i < 8; i++ {
			i := i
			procs = append(procs, e.NewProc(fmt.Sprintf("p%d", i), Time(i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time((i*7+j*13)%29 + 1))
					trace = append(trace, fmt.Sprintf("%d.%d@%d", i, j, p.Now()))
				}
			}))
		}
		_ = procs
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(trace, ",")
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(25, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 125 {
		t.Fatalf("After fired at %v, want 125", at)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc("a", 0, func(p *Proc) {
		order = append(order, "a-before")
		p.Sleep(0)
		order = append(order, "a-after")
	})
	e.Schedule(0, func() { order = append(order, "event") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	if got != "a-before,event,a-after" {
		t.Fatalf("order = %q", got)
	}
}
