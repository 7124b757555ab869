package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// TestTypedValidationErrors: NewMachine reports each misconfiguration with
// its typed sentinel, so callers can branch with errors.Is instead of
// string-matching.
func TestTypedValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero nodes", Config{Nodes: 0, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"negative nodes", Config{Nodes: -3, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"too many nodes", Config{Nodes: MaxNodes + 1, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"zero block", Config{Nodes: 4, BlockSize: 0, Protocol: SC}, ErrBadBlockSize},
		{"non-power-of-two block", Config{Nodes: 4, BlockSize: 96, Protocol: SC}, ErrBadBlockSize},
		{"negative block", Config{Nodes: 4, BlockSize: -64, Protocol: SC}, ErrBadBlockSize},
		{"no protocol", Config{Nodes: 4, BlockSize: 64}, ErrNoProtocol},
		{"unknown protocol", Config{Nodes: 4, BlockSize: 64, Protocol: "tso"}, ErrUnknownProtocol},
		{"bad fault probability", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Drop(1.5))}, ErrBadFaultPlan},
		{"fault node out of range", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Partition(0, 4, 0, 1000))}, ErrBadFaultPlan},
		{"bad straggler factor", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Straggler(1, 0.5, 0, 0))}, ErrBadFaultPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMachine(tc.cfg)
			if err == nil {
				t.Fatal("NewMachine accepted an invalid config")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestFaultPlanErrorKeepsCause: the wrapped fault error still carries the
// faults package's own sentinel, so both layers are matchable.
func TestFaultPlanErrorKeepsCause(t *testing.T) {
	_, err := NewMachine(Config{Nodes: 4, BlockSize: 64, Protocol: SC,
		Faults: faults.NewPlan(faults.Drop(2))})
	if !errors.Is(err, ErrBadFaultPlan) || !errors.Is(err, faults.ErrBadProbability) {
		t.Fatalf("error %v should wrap both ErrBadFaultPlan and faults.ErrBadProbability", err)
	}
}

// TestValidConfigsStillAccepted guards against over-tightening: the
// boundary values and the sequential-default paths must keep working.
func TestValidConfigsStillAccepted(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 1, BlockSize: 64, Protocol: SC},
		{Nodes: 64, BlockSize: 4096, Protocol: HLRC},
		{Nodes: 65, BlockSize: 4096, Protocol: SC}, // first count past the old bitmask ceiling
		{Nodes: MaxNodes, BlockSize: 4096, Protocol: HLRC},
		{Sequential: true, BlockSize: 64}, // nodes and protocol defaulted
		{Nodes: 4, BlockSize: 64, Protocol: SWLRC,
			Faults: faults.NewPlan(faults.Drop(0.01), faults.Seed(7))},
	} {
		if _, err := NewMachine(cfg); err != nil {
			t.Errorf("NewMachine(%+v): %v", cfg, err)
		}
	}
}

// fullDisk accepts room bytes and fails every write after them.
type fullDisk struct {
	room int
	got  bytes.Buffer
}

var errDiskFull = errors.New("no space left on device")

func (w *fullDisk) Write(p []byte) (int, error) {
	n := min(len(p), w.room-w.got.Len())
	w.got.Write(p[:n])
	if n < len(p) {
		return n, errDiskFull
	}
	return n, nil
}

// TestTraceWriteErrorFailsRun: a trace sink that stops accepting bytes —
// at once, or after the tracer's buffer has already been written through a
// few times — fails the run and the checkpoint cut with the writer's error
// instead of returning a Result beside a truncated file. A run that
// aborted reports its own error and still flushes what it traced.
func TestTraceWriteErrorFailsRun(t *testing.T) {
	app := func() App {
		var base int
		return &testApp{
			name: "tracefail", heap: 32 * 1024,
			setup: func(h *Heap) { base = h.AllocI64s(64) },
			run: func(c *Ctx) {
				for i := 0; i < 20; i++ {
					c.WriteI64(base+8*c.ID(), int64(i))
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	machine := func(w io.Writer, limit sim.Time) *Machine {
		m, err := NewMachine(Config{Nodes: 2, BlockSize: 256, Protocol: HLRC, Limit: limit, Trace: w})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var whole bytes.Buffer
	if _, err := machine(&whole, 10*sim.Second).Run(app()); err != nil {
		t.Fatalf("healthy writer: %v", err)
	}
	for _, room := range []int{0, 10000, whole.Len() - 1} {
		disk := &fullDisk{room: room}
		if res, err := machine(disk, 10*sim.Second).Run(app()); !errors.Is(err, errDiskFull) || res != nil {
			t.Errorf("room for %d of %d bytes: Run returned (result %t, %v), want the writer's error alone", room, whole.Len(), res != nil, err)
		}
		if !bytes.Equal(disk.got.Bytes(), whole.Bytes()[:room]) {
			t.Errorf("room for %d bytes: the bytes accepted are not a prefix of the whole trace", room)
		}
	}
	if cp, err := machine(&fullDisk{}, 10*sim.Second).RunToBarrier(context.Background(), app(), 3); !errors.Is(err, errDiskFull) || cp != nil {
		t.Errorf("RunToBarrier returned (checkpoint %t, %v), want the writer's error alone", cp != nil, err)
	}

	const short = 300 * sim.Microsecond // the run needs longer: it aborts
	var partial bytes.Buffer
	if _, err := machine(&partial, short).Run(app()); err == nil {
		t.Fatal("run past its limit succeeded")
	}
	if partial.Len() == 0 || partial.Len() >= whole.Len() {
		t.Errorf("aborted run flushed %d bytes of a %d-byte trace", partial.Len(), whole.Len())
	}
	if _, err := machine(&fullDisk{}, short).Run(app()); err == nil || errors.Is(err, errDiskFull) {
		t.Errorf("aborted run with a failing trace writer returned %v, want the run's own error", err)
	}
}

// TestUnrecoverableNetworkIsTypedError: a partition that outlasts the
// virtual time limit does not hang and does not end in a bare string. The
// run returns — in well under a second of host time, since backed-off
// timers are all that is left to dispatch — an error that wraps
// *sim.LimitError with every stuck proc and its block reason, and that
// names the links still holding unacknowledged frames.
func TestUnrecoverableNetworkIsTypedError(t *testing.T) {
	app, _ := faultTestApp(2, 5)
	m, err := NewMachine(Config{
		Nodes: 2, BlockSize: 64, Protocol: SC, Limit: sim.Second,
		Faults: faults.NewPlan(faults.Partition(0, 1, 0, 100*sim.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := m.Run(app)
	if took := time.Since(start); took > time.Second {
		t.Errorf("the run took %v of host time to reach its limit", took)
	}
	var limit *sim.LimitError
	if res != nil || !errors.As(err, &limit) {
		t.Fatalf("Run = (result %t, %v), want an error wrapping *sim.LimitError", res != nil, err)
	}
	if limit.Limit != sim.Second || limit.At <= limit.Limit {
		t.Errorf("LimitError{Limit: %v, At: %v}, want the configured 1s and an event past it", limit.Limit, limit.At)
	}
	if len(limit.Procs) != 2 {
		t.Fatalf("LimitError names %d procs, want both nodes: %+v", len(limit.Procs), limit.Procs)
	}
	for i, p := range limit.Procs {
		if p.Name != nodeNames[i] || p.Reason == "" {
			t.Errorf("proc %d reported as %+v, want %s with its block reason", i, p, nodeNames[i])
		}
	}
	text := err.Error()
	for _, want := range []string{"faultprobe/sc/64", "virtual time limit 1.000s exceeded", "unacked links: 0→1: ", " frames, oldest sent at ", " attempts"} {
		if !strings.Contains(text, want) {
			t.Errorf("error text lacks %q:\n%s", want, text)
		}
	}
}
