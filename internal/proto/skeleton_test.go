package proto

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dsmsim/internal/critpath"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"
)

const (
	kTestReq = ProtoKindBase + iota
	kTestData
)

// newTestEnv builds an n-node Env over a real engine and network, 8 blocks
// of 64 bytes per node, every message costing nothing to service and
// dispatched to *handle (set by the test before the engine runs).
func newTestEnv(n int, handle *func(*network.Msg)) *Env {
	eng := sim.NewEngine()
	model := timing.Default()
	env := &Env{
		Engine: eng, Model: model,
		Net:   network.New(eng, model, network.Polling, n),
		Homes: NewHomes(n, 8),
		Procs: make([]*sim.Proc, n),
	}
	for i := 0; i < n; i++ {
		env.Spaces = append(env.Spaces, mem.NewSpace(8*64, 64))
		env.Stats = append(env.Stats, &stats.Node{})
		env.Net.Endpoint(i).Bind(idleHost{},
			func(*network.Msg) sim.Time { return 0 },
			func(m *network.Msg) { (*handle)(m) })
	}
	return env
}

type idleHost struct{}

func (idleHost) Computing() bool { return false }
func (idleHost) Steal(sim.Time)  {}

// TestParkedRequestsRetryInOrder: requests parked on a transaction are
// retried in arrival order when it ends, each in its own event at that
// instant, after the finishing handler has returned and under its
// critical-path context; a request parked again survives with its body
// intact; a served one goes back to the network's pool.
func TestParkedRequestsRetryInOrder(t *testing.T) {
	var handle func(*network.Msg)
	env := newTestEnv(4, &handle)
	env.Crit = critpath.New(4)
	eng := env.Engine
	txns := NewTxns[string](env, func(m *network.Msg) { handle(m) })

	type served struct {
		kind int
		at   sim.Time
		ctx  int32
		m    *network.Msg
	}
	var log []served
	parks := 0
	handle = func(m *network.Msg) {
		if txns.Get(m.Block) != nil {
			parks++
			txns.Park(m)
			return
		}
		if m.A != int64(m.Kind)*10 || m.Src != m.Kind-kTestReq+1 {
			t.Errorf("kind %d served with A=%d Src=%d: parked message body damaged", m.Kind, m.A, m.Src)
		}
		log = append(log, served{m.Kind, eng.Now(), env.Crit.Context(), m})
		if len(log) == 1 {
			// Serving the first request opens the next transaction, as a
			// directory does: the two behind it must wait again.
			txns.Begin(m.Block, "second")
		}
	}

	const block = 3
	eng.Schedule(0, func() {
		if v := txns.Begin(block, "first"); *v != "first" || *txns.Get(block) != "first" || txns.Len() != 1 {
			t.Errorf("Begin/Get/Len disagree")
		}
		for src := 1; src <= 3; src++ {
			kind := kTestReq + src - 1
			env.Send(src, &network.Msg{Dst: 0, Kind: kind, Block: block, A: int64(kind) * 10, Bytes: 8})
		}
	})
	end := func(ctx int32, wantEvents int) func() {
		return func() {
			env.Crit.SetContext(ctx)
			before := eng.PendingEvents()
			txns.End(block)
			if got := eng.PendingEvents() - before; got != wantEvents {
				t.Errorf("End scheduled %d events, want one per parked request (%d)", got, wantEvents)
			}
			if n := len(log); n != 0 && log[n-1].at == eng.Now() {
				t.Errorf("a retry ran inside End, before the finishing handler returned")
			}
			env.Crit.ClearContext()
		}
	}
	eng.Schedule(sim.Millisecond, end(41, 3))
	eng.Schedule(2*sim.Millisecond, end(42, 2))
	var last *network.Msg
	eng.Schedule(3*sim.Millisecond, func() {
		if txns.Len() != 0 || txns.Get(block) != nil {
			t.Errorf("transaction still open after its End")
		}
		handle = func(m *network.Msg) { last = m }
		env.Send(1, &network.Msg{Dst: 0, Kind: kTestReq, Block: block})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	want := []served{
		{kind: kTestReq, at: sim.Millisecond, ctx: 41},
		{kind: kTestReq + 1, at: 2 * sim.Millisecond, ctx: 42},
		{kind: kTestReq + 2, at: 2 * sim.Millisecond, ctx: 42},
	}
	if len(log) != len(want) {
		t.Fatalf("served %d requests, want %d", len(log), len(want))
	}
	for i, w := range want {
		if g := log[i]; g.kind != w.kind || g.at != w.at || g.ctx != w.ctx {
			t.Errorf("retry %d: kind %d at %v under context %d, want kind %d at %v under %d",
				i, g.kind, g.at, g.ctx, w.kind, w.at, w.ctx)
		}
	}
	if parks != 5 {
		t.Errorf("parked %d times, want 5 (three arrivals, two re-queues)", parks)
	}
	if env.Crit.Context() != 0 {
		t.Errorf("a retry left its critical-path context set")
	}
	// The free list is LIFO: the message served last is the next one sent.
	if last != log[2].m {
		t.Errorf("the served message did not return to the network's pool")
	}
}

// TestSkeletonSteadyStateAllocs: with observers off, a request that is
// parked, retried, forwarded, answered with a block and installed costs
// no allocation once pools and queues are warm — a leaked message or
// buffer, or a message literal escaping through a helper, would show.
func TestSkeletonSteadyStateAllocs(t *testing.T) {
	var handle func(*network.Msg)
	env := newTestEnv(3, &handle)
	eng := env.Engine
	txns := NewTxns[struct{}](env, func(m *network.Msg) { handle(m) })
	const block = 5
	copy(env.Spaces[2].BlockData(block), "the block")
	installed := 0
	handle = func(m *network.Msg) {
		switch {
		case m.Kind == kTestData:
			env.Install(m)
			installed++
		case m.Dst == 0 && txns.Get(block) != nil:
			txns.Park(m)
		case m.Dst == 0:
			env.Forward(0, 2, "home", m)
		default:
			env.SendBlock(2, &network.Msg{Dst: int(m.A), Kind: kTestData, Block: block, Bytes: 8})
		}
	}
	begin := func() {
		txns.Begin(block, struct{}{})
		env.Send(1, &network.Msg{Dst: 0, Kind: kTestReq, Block: block, A: 1, Bytes: 8})
	}
	end := func() { txns.End(block) }
	cycle := func() {
		eng.Schedule(eng.Now(), begin)
		eng.Schedule(eng.Now()+sim.Millisecond, end)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("park → retry → forward → block grant → install allocates %.1f per request, want 0", avg)
	}
	if installed != 101 || env.Stats[0].Forwards != 101 {
		t.Fatalf("%d installs, %d forwards, want 101 each", installed, env.Stats[0].Forwards)
	}
	if got := env.Spaces[1].BlockData(block); !bytes.HasPrefix(got, []byte("the block")) {
		t.Errorf("installed block reads %q", got[:9])
	}
}

// TestRequestDoneRoundTrip: Request traces the fetch under the protocol's
// spelling, blocks the proc under the protocol's reason, and leaves the
// fault record as the resolving handler set it.
func TestRequestDoneRoundTrip(t *testing.T) {
	var handle func(*network.Msg)
	env := newTestEnv(2, &handle)
	var line bytes.Buffer
	env.Tracer = trace.New(env.Engine, &line)
	pend := NewPending(env, "target", "test read fetch block", "test write fetch block")
	handle = func(m *network.Msg) {
		if r := env.Procs[1].Reason(); r != "test write fetch block 6" {
			t.Errorf("blocked with reason %q", r)
		}
		if f := pend.At(1); f.Block != 6 || !f.Write {
			t.Errorf("pending fault = %+v", *f)
		}
		pend.At(1).BecameHome = true
		pend.Done(1, 6)
	}
	var got Fault
	env.Procs[1] = env.Engine.NewProc("node1", 0, func(*sim.Proc) {
		pend.Request(1, true, &network.Msg{Dst: 0, Kind: kTestReq, Block: 6, Bytes: 8})
		got = *pend.At(1)
	})
	if err := env.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (Fault{Block: 6, Write: true, BecameHome: true}); got != want {
		t.Errorf("after Request the fault record is %+v, want %+v", got, want)
	}
	if err := env.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line.String(), "fetch block=6 write=1 target=0") {
		t.Errorf("fetch event missing or misspelled in trace:\n%s", line.String())
	}
}

// TestDoneOnWrongBlockPanics: a grant for a block the node is not waiting
// on names the node and both blocks.
func TestDoneOnWrongBlockPanics(t *testing.T) {
	var handle func(*network.Msg)
	pend := NewPending(newTestEnv(2, &handle), "home", "r", "w")
	pend.faults[1] = Fault{Block: 7}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"node 1", "block 9", "block 7"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	pend.Done(1, 9)
}
