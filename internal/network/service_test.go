package network

import (
	"testing"

	"dsmsim/internal/sim"
	"dsmsim/internal/timing"
)

// TestHoldoffReValidatedAtServiceStart: a holdoff opened between service
// scheduling and service start must still defer the service — the
// forward-progress guarantee behind the SC livelock fix.
func TestHoldoffReValidatedAtServiceStart(t *testing.T) {
	eng := sim.NewEngine()
	model := timing.Default()
	nw := New(eng, model, Polling, 2)
	host := &testHost{computing: true}
	var servicedAt sim.Time
	nw.Endpoint(1).Bind(host,
		func(m *Msg) sim.Time { return 0 },
		func(m *Msg) { servicedAt = eng.Now() })
	nw.Endpoint(0).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	// Open a holdoff AFTER arrival but before the notification delay has
	// elapsed (arrival ≈ 23µs + poll ≈ 4.5µs; holdoff at 25µs for 3µs).
	eng.Schedule(25*sim.Microsecond, func() {
		nw.Endpoint(1).Holdoff()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if servicedAt < 25*sim.Microsecond+model.PollDelay {
		t.Fatalf("serviced at %v, before the late holdoff window closed", servicedAt)
	}
}

// TestServiceWaitsForBusyEndpoint: a message arriving while the endpoint
// is mid-service starts only after the first completes.
func TestServiceWaitsForBusyEndpoint(t *testing.T) {
	eng := sim.NewEngine()
	model := timing.Default()
	nw := New(eng, model, Polling, 3)
	var order []int
	var done []sim.Time
	cost := 200 * sim.Microsecond
	nw.Endpoint(2).Bind(&testHost{},
		func(m *Msg) sim.Time { return cost },
		func(m *Msg) { order, done = append(order, m.Kind), append(done, eng.Now()) })
	for _, i := range []int{0, 1} {
		nw.Endpoint(i).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	}
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Kind: 1, Block: -1})
	})
	eng.Schedule(10*sim.Microsecond, func() {
		nw.Endpoint(1).Send(&Msg{Src: 1, Dst: 2, Kind: 2, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("service order = %v", order)
	}
	// The second message arrived mid-service: it starts when the first
	// completes, and occupies the endpoint for its own full service time.
	if gap := done[1] - done[0]; gap != cost+model.HandlerCost {
		t.Fatalf("second service completed %v after the first, want %v", gap, cost+model.HandlerCost)
	}
}

// TestNotifyWaitAccounted: a computing receiver starts service one
// interrupt delivery later than an idle one, and the end-to-end latency
// histogram records the difference.
func TestNotifyWaitAccounted(t *testing.T) {
	model := timing.Default()
	serve := func(computing bool) (handled sim.Time, latency int64) {
		eng := sim.NewEngine()
		nw := New(eng, model, Interrupt, 2)
		nw.Endpoint(1).Bind(&testHost{computing: computing}, func(m *Msg) sim.Time { return 0 },
			func(m *Msg) { handled = eng.Now() })
		nw.Endpoint(0).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
		eng.Schedule(0, func() {
			nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return handled, nw.Endpoint(1).Stats.Latency.Sum
	}
	idleAt, idleLat := serve(false)
	busyAt, busyLat := serve(true)
	if got := busyAt - idleAt; got != model.InterruptDelivery {
		t.Fatalf("notify wait = %v, want %v", got, model.InterruptDelivery)
	}
	if got := sim.Time(busyLat - idleLat); got != model.InterruptDelivery {
		t.Fatalf("latency histogram grew by %v, want %v", got, model.InterruptDelivery)
	}
}
