package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// TestTracedRunsLeaveNoGoroutines: a traced run ends its tracer's encoder
// however the run ends — a Result, a cancelled context, the virtual-time
// limit, a deadlock, an application panic unwinding out of Run, a resume
// whose build fails after the tracer started, and a capture that never
// reaches its cut. Each case runs once to warm the engine's idle workers,
// then again against the goroutine count between the two.
func TestTracedRunsLeaveNoGoroutines(t *testing.T) {
	const nodes = 2
	cfg := Config{Nodes: nodes, BlockSize: 256, Protocol: HLRC, Limit: 100 * sim.Second, Trace: io.Discard}
	var cancel context.CancelFunc
	newApp := func(rounds int, body func(c *Ctx, round int)) *testApp {
		var base int
		return &testApp{
			name:  "tracelife",
			heap:  32 * 1024,
			setup: func(h *Heap) { base = h.AllocI64s(64) },
			run: func(c *Ctx) {
				for e := 0; e < rounds; e++ {
					if body != nil {
						body(c, e)
					}
					c.WriteI64(base+8*c.ID(), int64(e))
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	machine := func(cfg Config) *Machine {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cp, err := machine(Config{Nodes: nodes, BlockSize: 256, Protocol: HLRC}).RunToBarrier(context.Background(), newApp(6, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error // the error the exit path is known by, nil if it is not that path
	}{
		{"result", func() error {
			_, err := machine(cfg).Run(newApp(6, nil))
			return err
		}},
		{"cancelled", func() error {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			_, err := machine(cfg).RunContext(ctx, newApp(1_000_000, func(c *Ctx, e int) {
				if e == 3 && c.ID() == 0 {
					cancel()
				}
			}))
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return errors.Join(errors.New("want context.Canceled"), err)
		}},
		{"limit", func() error {
			short := cfg
			short.Limit = 200 * sim.Microsecond
			_, err := machine(short).Run(newApp(1000, nil))
			var limit *sim.LimitError
			if errors.As(err, &limit) {
				return nil
			}
			return errors.Join(errors.New("want a *sim.LimitError"), err)
		}},
		{"deadlock", func() error {
			_, err := machine(cfg).Run(newApp(1, func(c *Ctx, _ int) {
				if c.ID() == 0 {
					c.Lock(1)
					c.Lock(1) // held by itself: never granted
				}
			}))
			var dl *sim.DeadlockError
			if errors.As(err, &dl) {
				return nil
			}
			return errors.Join(errors.New("want a *sim.DeadlockError"), err)
		}},
		{"app panic", func() (err error) {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), "kaboom") {
					err = errors.Join(errors.New("want the app's panic out of Run"), err)
				}
			}()
			_, err = machine(cfg).Run(newApp(6, func(c *Ctx, e int) {
				if e == 2 && c.ID() == 1 {
					panic("kaboom")
				}
			}))
			return err
		}},
		{"resume refused after the tracer started", func() error {
			ungated := cfg
			ungated.Faults = faults.NewPlan(faults.Drop(0.01), faults.Seed(1))
			_, err := machine(ungated).RunFromCheckpoint(context.Background(), cp, newApp(6, nil))
			if errors.Is(err, ErrNotResumable) && strings.Contains(err.Error(), "must be gated") {
				return nil
			}
			return errors.Join(errors.New("want restore to refuse the ungated plan"), err)
		}},
		{"capture never cut", func() error {
			_, err := machine(cfg).RunToBarrier(context.Background(), newApp(2, nil), 5)
			if errors.Is(err, ErrNotResumable) {
				return nil
			}
			return errors.Join(errors.New("want the run to finish before its cut"), err)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm: the idle workers this case's procs run on
				t.Fatalf("not the exit path this case is for: %v", err)
			}
			before := runtime.NumGoroutine()
			if err := tc.run(); err != nil {
				t.Fatalf("not the exit path this case is for: %v", err)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("%d goroutines after the run, %d before", after, before)
			}
		})
	}
}

// settleGoroutines polls until at most want goroutines run, for up to a
// second — an encoder that has answered its stop takes a moment to exit —
// and returns the last count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}
