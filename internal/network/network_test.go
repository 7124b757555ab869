package network

import (
	"strings"
	"testing"

	"dsmsim/internal/sim"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"
)

// testHost is a controllable Host.
type testHost struct {
	computing bool
	stolen    sim.Time
}

func (h *testHost) Computing() bool  { return h.computing }
func (h *testHost) Steal(c sim.Time) { h.stolen += c }

type delivery struct {
	at   sim.Time
	kind int
}

func setup(t *testing.T, notify Notify, n int) (*sim.Engine, *Network, []*testHost, *[]delivery) {
	t.Helper()
	eng := sim.NewEngine()
	model := timing.Default()
	nw := New(eng, model, notify, n)
	hosts := make([]*testHost, n)
	var got []delivery
	for i := 0; i < n; i++ {
		hosts[i] = &testHost{}
		ep := nw.Endpoint(i)
		ep.Bind(hosts[i],
			func(m *Msg) sim.Time { return 0 },
			func(m *Msg) { got = append(got, delivery{eng.Now(), m.Kind}) })
	}
	return eng, nw, hosts, &got
}

func TestDeliveryLatency(t *testing.T) {
	eng, nw, _, got := setup(t, Polling, 2)
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 7, Block: -1, Bytes: 0})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d", len(*got))
	}
	// Idle receiver: arrival + handler cost only.
	want := model.SendOverhead + model.OneWayLatency(model.MsgHeader) + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("delivered at %v, want %v", (*got)[0].at, want)
	}
}

func TestSelfSendHasNoWireTime(t *testing.T) {
	eng, nw, _, got := setup(t, Polling, 2)
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(1).Send(&Msg{Src: 1, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := model.SendOverhead + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("self-send at %v, want %v", (*got)[0].at, want)
	}
}

func TestFIFOServicePerEndpoint(t *testing.T) {
	eng, nw, _, got := setup(t, Polling, 3)
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Kind: 1, Block: -1, Bytes: 4096})
	})
	eng.Schedule(0, func() {
		nw.Endpoint(1).Send(&Msg{Src: 1, Dst: 2, Kind: 2, Block: -1, Bytes: 0})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The small message (kind 2) arrives first and must be serviced first.
	if len(*got) != 2 || (*got)[0].kind != 2 || (*got)[1].kind != 1 {
		t.Fatalf("service order = %+v", *got)
	}
}

func TestPollingDelayWhileComputing(t *testing.T) {
	eng, nw, hosts, got := setup(t, Polling, 2)
	model := timing.Default()
	hosts[1].computing = true
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	arrive := model.SendOverhead + model.OneWayLatency(model.MsgHeader)
	want := arrive + model.PollDelay + model.PollCheck + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("serviced at %v, want %v", (*got)[0].at, want)
	}
	if hosts[1].stolen != model.HandlerCost {
		t.Fatalf("stolen = %v, want handler cost %v", hosts[1].stolen, model.HandlerCost)
	}
}

func TestInterruptDelayWhileComputing(t *testing.T) {
	eng, nw, hosts, got := setup(t, Interrupt, 2)
	model := timing.Default()
	hosts[1].computing = true
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	arrive := model.SendOverhead + model.OneWayLatency(model.MsgHeader)
	want := arrive + model.InterruptDelivery + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("serviced at %v, want %v", (*got)[0].at, want)
	}
}

func TestInterruptHoldoffDefersService(t *testing.T) {
	eng, nw, hosts, got := setup(t, Interrupt, 2)
	model := timing.Default()
	hosts[1].computing = true
	eng.Schedule(0, func() {
		nw.Endpoint(1).Holdoff()
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := model.InterruptHoldoff + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("serviced at %v, want %v (holdoff-bound)", (*got)[0].at, want)
	}
}

func TestHoldoffIgnoredUnderPolling(t *testing.T) {
	eng, nw, hosts, got := setup(t, Polling, 2)
	model := timing.Default()
	hosts[1].computing = true
	eng.Schedule(0, func() {
		nw.Endpoint(1).Holdoff()
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	arrive := model.SendOverhead + model.OneWayLatency(model.MsgHeader)
	want := arrive + model.PollDelay + model.PollCheck + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("serviced at %v, want %v", (*got)[0].at, want)
	}
}

func TestTrafficStats(t *testing.T) {
	eng, nw, _, got := setup(t, Polling, 2)
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1, Bytes: 100})
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1, Bytes: 50})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := nw.Endpoint(0).Stats
	if s.MsgsSent != 2 {
		t.Fatalf("MsgsSent = %d", s.MsgsSent)
	}
	if want := int64(150 + 2*model.MsgHeader); s.BytesSent != want {
		t.Fatalf("BytesSent = %d, want %d", s.BytesSent, want)
	}
	if len(*got) != 2 {
		t.Fatalf("receiver handled %d messages, want 2", len(*got))
	}
	if tot := nw.Traffic(); tot != s.Traffic {
		t.Fatalf("Network.Traffic() = %+v, want the one sender's %+v", tot, s.Traffic)
	}
}

func TestServiceCostSerializes(t *testing.T) {
	eng := sim.NewEngine()
	model := timing.Default()
	nw := New(eng, model, Polling, 2)
	host := &testHost{}
	var times []sim.Time
	costly := 100 * sim.Microsecond
	nw.Endpoint(1).Bind(host,
		func(m *Msg) sim.Time { return costly },
		func(m *Msg) { times = append(times, eng.Now()) })
	nw.Endpoint(0).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 2, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	gap := times[1] - times[0]
	if gap < costly+model.HandlerCost {
		t.Fatalf("second service only %v after first; want ≥ %v", gap, costly+model.HandlerCost)
	}
}

func TestBadDestinationPanics(t *testing.T) {
	eng, nw, _, _ := setup(t, Polling, 2)
	eng.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("bad destination did not panic")
			}
		}()
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 5, Kind: 1, Block: -1})
	})
	_ = eng.Run()
}

func TestDoubleBindPanics(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, timing.Default(), Polling, 1)
	ep := nw.Endpoint(0)
	ep.Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	defer func() {
		if recover() == nil {
			t.Error("double Bind did not panic")
		}
	}()
	ep.Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
}

// TestTracerEventsAndLatency: the structured tracer (which replaced the
// old SetTrace fprintf path) records send/recv/serve events, and the
// endpoint latency histogram matches the known send→service-start time.
func TestTracerEventsAndLatency(t *testing.T) {
	eng, nw, _, got := setup(t, Polling, 2)
	model := timing.Default()
	var sb strings.Builder
	tr := trace.New(eng, &sb)
	nw.SetTracer(tr)
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 7, Block: 3, Bytes: 16})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d", len(*got))
	}
	out := sb.String()
	for _, want := range []string{"send", "recv", "serve", "kind=7", "block=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Idle receiver: service starts at arrival, so latency = overhead + wire.
	lat := nw.Endpoint(1).Stats.Latency
	if lat.Count != 1 {
		t.Fatalf("latency samples = %d", lat.Count)
	}
	want := int64(model.SendOverhead + model.OneWayLatency(16+model.MsgHeader))
	if lat.Sum != want {
		t.Fatalf("latency = %d, want %d", lat.Sum, want)
	}
	if nw.Endpoint(0).Stats.Latency.Count != 0 {
		t.Fatal("latency recorded at the sender")
	}
}

func TestNotifyString(t *testing.T) {
	if Polling.String() != "polling" || Interrupt.String() != "interrupt" {
		t.Fatal("Notify.String wrong")
	}
}
