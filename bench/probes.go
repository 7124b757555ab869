package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"dsmsim"
	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/sweep"
	"dsmsim/internal/timing"
)

// probeSet collects the layer probes' readings. Every probe checks the
// count of the work it is named for; a probe that did not do that work
// records a failure, and the benchmark exits non-zero.
type probeSet struct {
	// reps is how often each probe repeats its timed loop (the reading is
	// the median); bigReps the same for the probes that take a tenth of
	// a second and more per repetition.
	reps, bigReps int
	vals          map[string]float64
	// aux holds readings that are not reported, only used by estimates.
	aux      map[string]float64
	failures []string
}

func (p *probeSet) set(name string, v float64) { p.vals[name] = v }

// auxDirectory suffixes a synch probe's name for its reading under the
// directory protocol family (no intervals, no vector clocks).
const auxDirectory = "/directory"

// check records a self-check failure unless ok.
func (p *probeSet) check(ok bool, format string, args ...any) {
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// probeReps is the repetition count of a benchmark invocation.
const probeReps = 5

// timePer returns the median, over reps calls of fn, of the host ns per
// operation, fn doing n operations per call.
func timePer(reps, n int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(xs)
}

// runProbes runs every layer probe once, each timed loop reps times.
func runProbes(ctx context.Context, seed uint64, reps int) *probeSet {
	p := &probeSet{reps: reps, bigReps: min(reps, 3), vals: map[string]float64{}, aux: map[string]float64{}}
	probeSim(p)
	probeMem(p)
	probeNetwork(p)
	probeSmall(p)
	probeProto(ctx, p)
	probeSynch(ctx, p)
	probeCore(ctx, p)
	probeCheckpoint(ctx, p)
	probeSweep(ctx, p, seed)
	return p
}

// --- sim -------------------------------------------------------------------

func probeSim(p *probeSet) {
	const events = 200_000
	p.set("sim.dispatch_ns", timePer(p.reps, events, func() {
		e := sim.NewEngine()
		scheduled, ran := 0, 0
		var step func()
		step = func() {
			ran++
			if scheduled < events {
				scheduled++
				e.Schedule(e.Now()+sim.Time(scheduled%13+1), step)
			}
		}
		// A fan of outstanding events gives the heap a realistic depth.
		for i := 0; i < 64; i++ {
			scheduled++
			e.Schedule(sim.Time(i+1), step)
		}
		err := e.Run()
		p.check(err == nil && ran == events, "sim.dispatch: ran %d of %d events (%v)", ran, events, err)
	}))

	const rounds = 20_000
	p.set("sim.switch_ns", timePer(p.reps, 2*rounds, func() {
		e := sim.NewEngine()
		switches := 0
		var a, b *sim.Proc
		b = e.NewProc("b", 0, func(pr *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pr.Block("pong")
				switches++
				a.Unblock()
			}
		})
		a = e.NewProc("a", 1, func(pr *sim.Proc) {
			for i := 0; i < rounds; i++ {
				b.Unblock()
				pr.Block("ping")
				switches++
			}
		})
		err := e.Run()
		p.check(err == nil && switches == 2*rounds, "sim.switch: %d of %d hand-offs (%v)", switches, 2*rounds, err)
	}))

	const sleeps = 1_000_000
	p.set("sim.sleep_ns", timePer(p.reps, sleeps, func() {
		e := sim.NewEngine()
		e.NewProc("sleeper", 0, func(pr *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				pr.Sleep(10)
			}
		})
		err := e.Run()
		p.check(err == nil && e.Now() == 10*sleeps, "sim.sleep: clock at %v after %d sleeps (%v)", e.Now(), sleeps, err)
	}))
}

// --- mem -------------------------------------------------------------------

func probeMem(p *probeSet) {
	const size, block = 1 << 20, 64
	sp := mem.NewSpace(size, block)
	nb := sp.NumBlocks()
	for b := 0; b < nb; b += 2 {
		sp.SetTag(b, mem.ReadOnly)
	}
	const passes = 20
	p.set("mem.tag_check_ns", timePer(p.reps, passes*nb, func() {
		readable, writable := 0, 0
		for i := 0; i < passes; i++ {
			for b := 0; b < nb; b++ {
				if sp.Tag(b).Allows(false) {
					readable++
				}
				if sp.Tag(b).Allows(true) {
					writable++
				}
			}
		}
		p.check(readable == passes*nb/2 && writable == 0, "mem.tag_check: %d readable, %d writable", readable, writable)
	}))
	p.set("mem.set_tag_ns", timePer(p.reps, 2*nb, func() {
		v0 := sp.Ver()
		for b := 0; b < nb; b++ {
			sp.SetTag(b, mem.ReadWrite)
		}
		for b := 0; b < nb; b++ {
			sp.SetTag(b, mem.NoAccess)
		}
		p.check(sp.Ver()-v0 == uint32(2*nb), "mem.set_tag: %d transitions, want %d", sp.Ver()-v0, 2*nb)
	}))
	sp.Release()

	// A 4 KB block with 10 % of its bytes dirty, in 8-byte runs.
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	dirty := 0
	for off := 0; off+8 <= len(cur) && dirty < len(cur)/10; off += 80 {
		for i := 0; i < 8; i++ {
			cur[off+i] = 0xa5
			dirty++
		}
	}
	var runs []mem.DiffRun
	var buf []byte
	var d mem.Diff
	const diffs = 20_000
	p.set("mem.diff_4k_ns", timePer(p.reps, diffs, func() {
		for i := 0; i < diffs; i++ {
			d, buf = mem.DiffInto(twin, cur, runs, buf)
			runs = d.Runs
		}
		p.check(d.PayloadBytes() == dirty, "mem.diff: payload %d bytes, want %d", d.PayloadBytes(), dirty)
	}))
	dst := make([]byte, 4096)
	p.set("mem.diff_apply_4k_ns", timePer(p.reps, diffs, func() {
		for i := 0; i < diffs; i++ {
			d.Apply(dst)
		}
		p.check(bytes.Equal(dst, cur), "mem.diff_apply: home copy differs from the dirty block")
	}))

	const spaces = 200
	p.set("mem.new_space_us", timePer(p.reps, spaces, func() {
		blocks := 0
		for i := 0; i < spaces; i++ {
			s := mem.NewSpace(size, block)
			blocks += s.NumBlocks()
			s.Release()
		}
		p.check(blocks == spaces*size/block, "mem.new_space: %d blocks", blocks)
	})/1e3)
}

// --- network ---------------------------------------------------------------

// idleHost is a node that is never computing: messages are serviced on
// arrival.
type idleHost struct{}

func (idleHost) Computing() bool { return false }
func (idleHost) Steal(sim.Time)  {}

// pingPong bounces one message between two endpoints until n have been
// serviced (Send → deliver → service, each service sending the next) and
// returns the number serviced and the summed endpoint counters.
func pingPong(n, payload int, plan *faults.Plan) (serviced int, st network.Stats, err error) {
	eng := sim.NewEngine()
	nw := network.New(eng, timing.Default(), network.Polling, 2)
	if plan != nil {
		nw.SetFaults(plan.Compile(2))
	}
	send := func(src int) {
		msg := network.Msg{Src: src, Dst: 1 - src, Kind: 1, Block: -1, Bytes: payload}
		if payload > 0 {
			msg.Data = nw.AllocData(payload)
			msg.DataPooled = true
		}
		nw.Endpoint(src).Send(&msg)
	}
	for i := 0; i < 2; i++ {
		id := i
		nw.Endpoint(id).Bind(idleHost{},
			func(*network.Msg) sim.Time { return 0 },
			func(*network.Msg) {
				if serviced++; serviced < n {
					send(id)
				}
			})
	}
	eng.Schedule(0, func() { send(0) })
	err = eng.Run()
	for i := 0; i < 2; i++ {
		s := nw.Endpoint(i).Stats
		st.MsgsSent += s.MsgsSent
		st.Retransmits += s.Retransmits
		st.AcksSent += s.AcksSent
	}
	return serviced, st, err
}

func probeNetwork(p *probeSet) {
	const msgs = 100_000
	p.set("network.send_ns", timePer(p.reps, msgs, func() {
		n, st, err := pingPong(msgs, 0, nil)
		p.check(err == nil && n == msgs && st.MsgsSent == msgs && st.Retransmits == 0,
			"network.send: serviced %d, sent %d, retransmits %d (%v)", n, st.MsgsSent, st.Retransmits, err)
	}))
	p.set("network.send_data_4k_ns", timePer(p.reps, msgs, func() {
		n, _, err := pingPong(msgs, 4096, nil)
		p.check(err == nil && n == msgs, "network.send_data_4k: serviced %d (%v)", n, err)
	}))
	lossy := faults.NewPlan(faults.Drop(0.01), faults.Seed(7))
	var st network.Stats
	p.set("network.arq_send_ns", timePer(p.reps, msgs, func() {
		var n int
		var err error
		n, st, err = pingPong(msgs, 0, lossy)
		p.check(err == nil && n == msgs && st.Retransmits > 0 && st.AcksSent > 0,
			"network.arq: serviced %d, retransmits %d, acks %d (%v)", n, st.Retransmits, st.AcksSent, err)
	}))
	if st.MsgsSent > 0 {
		p.set("network.arq_retx_ratio", float64(st.Retransmits)/float64(st.MsgsSent))
		p.set("network.arq_acks_per_msg", float64(st.AcksSent)/float64(st.MsgsSent))
	}
}

// --- timing, faults, stats ---------------------------------------------------

func probeSmall(p *probeSet) {
	model := timing.Default()
	sizes := []int{16, 80, 272, 1040, 4112}
	var want sim.Time
	for _, s := range sizes {
		want += model.OneWayLatency(s)
	}
	const lookups = 1_000_000
	p.set("timing.latency_lookup_ns", timePer(p.reps, lookups, func() {
		var sum sim.Time
		for i := 0; i < lookups; i++ {
			sum += model.OneWayLatency(sizes[i%len(sizes)])
		}
		p.check(sum == want*lookups/sim.Time(len(sizes)), "timing.latency_lookup: latency sum %v", sum)
	}))

	const parses = 2_000
	p.set("faults.parse_us", timePer(p.reps, parses, func() {
		ok := 0
		for i := 0; i < parses; i++ {
			plan, err := faults.Parse("drop=0.01,dup=0.005,jitter=20us,seed=7,partition=0-1@1ms:2ms")
			if err == nil && plan.ValidateFor(16) == nil {
				ok++
			}
		}
		p.check(ok == parses, "faults.parse: %d of %d specs parsed and validated", ok, parses)
	})/1e3)

	const observes = 1_000_000
	p.set("stats.hist_observe_ns", timePer(p.reps, observes, func() {
		var h stats.Histogram
		for i := 0; i < observes; i++ {
			h.Observe(int64(i&0xffff) + 1)
		}
		p.check(h.Count == observes, "stats.hist_observe: count %d", h.Count)
	}))

	// The 1024-way Add a 1024-node run's Result makes.
	const adds = 1024 * 20
	node := stats.Node{ReadFaults: 1}
	node.ReadFaultTime.Observe(100)
	p.set("stats.node_add_ns", timePer(p.reps, adds, func() {
		var total stats.Node
		for i := 0; i < adds; i++ {
			total.Add(&node)
		}
		p.check(total.ReadFaults == adds && total.ReadFaultTime.Count == adds,
			"stats.node_add: %d faults, %d observations", total.ReadFaults, total.ReadFaultTime.Count)
	}))
}

// --- probe applications -----------------------------------------------------

// probeApp is a synthetic application: a heap of the given size and a
// per-node body.
type probeApp struct {
	heap int
	run  func(c *dsmsim.Ctx)
}

func (a *probeApp) Info() dsmsim.AppInfo      { return dsmsim.AppInfo{Name: "probe", HeapBytes: a.heap} }
func (a *probeApp) Setup(*dsmsim.Heap)        {}
func (a *probeApp) Run(c *dsmsim.Ctx)         { a.run(c) }
func (a *probeApp) Verify(*dsmsim.Heap) error { return nil }

// probeHeap is the synthetic applications' heap, of the order of a Small
// application's (LU's is 160 KB), so a build probe allocates what a real
// run does.
const probeHeap = 256 << 10

// timedRun runs body on every node of a cfg machine reps times and
// returns the median host ns and the last result.
func timedRun(ctx context.Context, p *probeSet, what string, reps int, cfg dsmsim.Config, body func(c *dsmsim.Ctx)) (float64, *dsmsim.Result) {
	var res *dsmsim.Result
	ns := timePer(reps, 1, func() {
		r, err := dsmsim.Start(ctx, cfg, &probeApp{heap: probeHeap, run: body})
		p.check(err == nil, "%s: %v", what, err)
		if err == nil {
			res = r
		}
	})
	if res == nil {
		res = &dsmsim.Result{}
	}
	return ns, res
}

func barriers(n int) func(c *dsmsim.Ctx) {
	return func(c *dsmsim.Ctx) {
		for i := 0; i < n; i++ {
			c.Barrier()
		}
	}
}

// --- proto -----------------------------------------------------------------

func probeProto(ctx context.Context, p *probeSet) {
	// Two nodes take turns writing one word; the other reads it back. A
	// barrier after every step forces the alternation under every
	// protocol (lazy protocols propagate nothing without one). The same
	// barriers with no access are the control that is subtracted.
	const steps = 400
	const addr = 1024
	for _, name := range dsmsim.AllProtocols() {
		cfg := dsmsim.Config{Nodes: 2, BlockSize: 256, Protocol: name}
		stale := 0
		withNS, with := timedRun(ctx, p, "proto."+name+".fault_rt", p.reps, cfg, func(c *dsmsim.Ctx) {
			for i := 0; i < steps; i++ {
				if c.ID() == i%2 {
					c.WriteI64(addr, int64(i+1))
				}
				c.Barrier()
				if c.ID() != i%2 && c.ReadI64(addr) != int64(i+1) {
					stale++
				}
				c.Barrier()
			}
		})
		ctlNS, ctl := timedRun(ctx, p, "proto."+name+".fault_rt control", p.reps, cfg, barriers(2*steps))
		flts := with.Total.ReadFaults + with.Total.WriteFaults
		msgs := with.NetMsgs - ctl.NetMsgs
		p.check(stale == 0, "proto.%s: %d stale reads", name, stale)
		p.check(flts >= steps && msgs >= 2*steps,
			"proto.%s.fault_rt: %d faults and %d messages in %d steps", name, flts, msgs, steps)
		if flts > 0 {
			p.set("proto."+name+".fault_rt_ns", (withNS-ctlNS)/float64(flts))
			p.set("proto."+name+".msgs_per_fault", float64(msgs)/float64(flts))
		}

		// An empty application on 1024 nodes: what the machine costs to
		// build, run through one barrier and tear down.
		big := dsmsim.Config{Nodes: 1024, BlockSize: 4096, Protocol: name}
		buildNS, built := timedRun(ctx, p, "proto."+name+".build_1024n", p.bigReps, big, barriers(1))
		p.check(built.Total.BarrierEntries == 1024, "proto.%s.build_1024n: %d barrier entries", name, built.Total.BarrierEntries)
		p.set("proto."+name+".build_1024n_ms", buildNS/1e6)
		p.set("proto."+name+".static_mb_1024n", float64(built.ProtoStaticBytes)/1e6)
	}
}

// --- synch -----------------------------------------------------------------

func probeSynch(ctx context.Context, p *probeSet) {
	// Two nodes contend for one lock homed on a third, so every acquire
	// is a hand-off through the home: the general case.
	const acquires = 1000
	locking := func(c *dsmsim.Ctx) {
		if c.ID() != 0 {
			for i := 0; i < acquires; i++ {
				c.Lock(0)
				c.Unlock(0)
			}
		}
		c.Barrier()
	}
	for _, v := range []struct{ metric, msgs, protocol string }{
		{"synch.lock_handoff_ns", "synch.msgs_per_lock_sc", dsmsim.SC},
		{"synch.lock_handoff_lrc_ns", "synch.msgs_per_lock_lrc", dsmsim.HLRC},
	} {
		cfg := dsmsim.Config{Nodes: 3, BlockSize: 1024, Protocol: v.protocol}
		withNS, with := timedRun(ctx, p, v.metric, p.reps, cfg, locking)
		ctlNS, ctl := timedRun(ctx, p, v.metric+" control", p.reps, cfg, barriers(1))
		n := with.Total.LockAcquires
		p.check(n == 2*acquires, "%s: %d lock acquires, want %d", v.metric, n, 2*acquires)
		if n > 0 {
			perLock := float64(with.NetMsgs-ctl.NetMsgs) / float64(n)
			p.check(perLock >= 2, "%s: %.2f messages per acquire", v.metric, perLock)
			p.set(v.metric, (withNS-ctlNS)/float64(n))
			p.set(v.msgs, perLock)
		}
	}

	// Barriers under both protocol families: the LRC family merges
	// vector clocks and fans out write notices at every barrier, the rest
	// do not. The reported metrics are HLRC's, the heavier path; the
	// directory family's reading only feeds est.sync_share.
	ns16, us1024, build16NS := barrierCosts(ctx, p, dsmsim.HLRC)
	p.set("synch.barrier_16n_ns", ns16)
	p.set("synch.barrier_1024n_us", us1024)
	p.set("core.build_16n_us", build16NS/1e3)
	p.set("core.build_1024n_ms", p.vals["proto."+dsmsim.HLRC+".build_1024n_ms"])
	p.aux["synch.barrier_16n_ns"+auxDirectory], p.aux["synch.barrier_1024n_us"+auxDirectory], _ = barrierCosts(ctx, p, dsmsim.SC)
}

// barrierCosts times one barrier episode of an empty application under
// protocol on 16 nodes (ns) and on 1024 (us), as the difference between a
// run with many barriers and a run with one; the 16-node run with one is
// what an empty machine costs to build, returned in ns. The 1024-node
// build is probeProto's reading.
func barrierCosts(ctx context.Context, p *probeSet, protocol string) (ns16, us1024, build16NS float64) {
	const episodes, bigEpisodes = 1000, 8
	cfg := dsmsim.Config{Nodes: 16, BlockSize: 4096, Protocol: protocol}
	manyNS, many := timedRun(ctx, p, "synch.barrier_16n", p.reps, cfg, barriers(1+episodes))
	build16NS, _ = timedRun(ctx, p, "synch.barrier_16n control", p.reps, cfg, barriers(1))
	p.check(many.Total.BarrierEntries == 16*(1+episodes), "synch.barrier_16n: %d entries", many.Total.BarrierEntries)

	cfg.Nodes = 1024
	bigNS, big := timedRun(ctx, p, "synch.barrier_1024n", p.bigReps, cfg, barriers(1+bigEpisodes))
	p.check(big.Total.BarrierEntries == 1024*(1+bigEpisodes), "synch.barrier_1024n: %d entries", big.Total.BarrierEntries)
	buildMS := p.vals["proto."+protocol+".build_1024n_ms"]
	return (manyNS - build16NS) / episodes, (bigNS/1e6 - buildMS) * 1e3 / bigEpisodes, build16NS
}

// --- core ------------------------------------------------------------------

func probeCore(ctx context.Context, p *probeSet) {
	const reads = 2_000_000
	cfg := dsmsim.Config{Nodes: 2, BlockSize: 4096, Protocol: dsmsim.SC}
	var sum int64
	reading := func(stride int) func(c *dsmsim.Ctx) {
		return func(c *dsmsim.Ctx) {
			if c.ID() == 0 {
				for i := 0; i < reads; i++ {
					// stride 0 re-reads one validated span; a stride of
					// several blocks leaves it on every access while the
					// tags stay valid, forcing the scan.
					sum += c.ReadI64((i & 1) * stride)
				}
			}
			c.Barrier()
		}
	}
	ctlNS, _ := timedRun(ctx, p, "core.access control", p.reps, cfg, barriers(1))
	hitNS, hit := timedRun(ctx, p, "core.access_hit", p.reps, cfg, reading(0))
	scanNS, scan := timedRun(ctx, p, "core.access_rescan", p.reps, cfg, reading(5*4096))
	p.check(sum == 0 && hit.Total.ReadFaults <= 1 && scan.Total.ReadFaults <= 2,
		"core.access: sum %d, %d and %d read faults", sum, hit.Total.ReadFaults, scan.Total.ReadFaults)
	p.set("core.access_hit_ns", (hitNS-ctlNS)/reads)
	p.set("core.access_rescan_ns", (scanNS-ctlNS)/reads)
}

// probeCheckpoint times capture, digest and restore of ocean-rowwise
// under hlrc at 4096 B, cut at barrier 12. Capture and restore are not
// callable on their own, so each is the difference of two calls that
// differ by exactly that step; a virtual-time limit ends a run where the
// other call would go on.
func probeCheckpoint(ctx context.Context, p *probeSet) {
	const cut = sweepStartBarrier
	cfg := dsmsim.Config{Nodes: 16, BlockSize: 4096, Protocol: dsmsim.HLRC}
	app := func() dsmsim.App {
		a, err := dsmsim.NewApp("ocean-rowwise", dsmsim.Small)
		p.check(err == nil, "core.checkpoint: %v", err)
		return a
	}
	machine := func(limit dsmsim.Time) *dsmsim.Machine {
		c := cfg
		c.Limit = limit
		m, err := dsmsim.NewMachine(c)
		p.check(err == nil, "core.checkpoint: %v", err)
		return m
	}
	m := machine(0)
	cp, err := m.RunToBarrier(ctx, app(), cut)
	if err != nil {
		p.check(false, "core.checkpoint: capture at barrier %d: %v", cut, err)
		return
	}
	next, err := m.RunToBarrier(ctx, app(), cut+1)
	if err != nil {
		p.check(false, "core.checkpoint: capture at barrier %d: %v", cut+1, err)
		return
	}
	before := cp.Digest()
	p.set("core.checkpoint_digest_ms", timePer(p.reps, 1, func() {
		p.check(cp.Digest() == before, "core.checkpoint_digest: digest changed between calls")
	})/1e6)

	// restore + one epoch + capture, against restore + one epoch.
	var forkedDigest uint64
	captureNS := timePer(p.reps, 1, func() {
		forked, err := m.RunToBarrierFrom(ctx, cp, app(), cut+1)
		p.check(err == nil, "core.checkpoint_capture: %v", err)
		if err == nil {
			forkedDigest = forked.Digest()
		}
	})
	toNext := machine(next.Now())
	epochNS := timePer(p.reps, 1, func() {
		_, err := toNext.RunFromCheckpoint(ctx, cp, app())
		p.check(err != nil, "core.checkpoint_capture: the limited run went past barrier %d", cut+1)
	})
	p.check(forkedDigest == next.Digest(), "core.checkpoint: forked state %x differs from fresh state %x at barrier %d",
		forkedDigest, next.Digest(), cut+1)
	p.check(cp.Digest() == before, "core.checkpoint: digest changed after restore")
	p.set("core.checkpoint_capture_ms", (captureNS-epochNS)/1e6)

	// build + restore, against build alone.
	atCut := machine(cp.Now())
	restoreNS := timePer(p.reps, 1, func() {
		_, err := atCut.RunFromCheckpoint(ctx, cp, app())
		p.check(err != nil, "core.restore: the limited run went past barrier %d", cut)
	})
	atStart := machine(1)
	buildNS := timePer(p.reps, 1, func() {
		_, err := atStart.RunContext(ctx, app())
		p.check(err != nil, "core.restore: the limited run went past time 1")
	})
	p.set("core.restore_ms", (restoreNS-buildNS)/1e6)
}

// --- sweep -----------------------------------------------------------------

func probeSweep(ctx context.Context, p *probeSet, seed uint64) {
	sp := newSweepPlan(seed, dsmsim.AllProtocols())
	var names []string
	for _, v := range sp.grid {
		names = append(names, v.Name)
	}
	spec := sweep.Spec{Apps: sp.spec.Apps, Protocols: sp.spec.Protocols, Granularities: sp.spec.Granularities,
		Notifies: []network.Notify{network.Polling}, Nodes: sp.spec.Nodes, Faults: names}
	var keys []sweep.Key
	const expansions = 200
	p.set("sweep.points_us", timePer(p.reps, expansions, func() {
		for i := 0; i < expansions; i++ {
			keys = sweep.Dedupe(spec.Points())
		}
		p.check(len(keys) == sp.runs, "sweep.points: %d points, want %d", len(keys), sp.runs)
	})/1e3)
	if len(keys) == 0 {
		return
	}

	res, err := dsmsim.StartApp(ctx, dsmsim.Config{Nodes: 16, BlockSize: 4096, Protocol: dsmsim.HLRC}, "lu", dsmsim.Small)
	if err != nil {
		p.check(false, "sweep probes: %v", err)
		return
	}
	memo := sweep.NewMemo()
	compute := func() (*dsmsim.Result, error) { return res, nil }
	memo.Do(keys[0], compute)
	const hits = 500_000
	p.set("sweep.memo_hit_ns", timePer(p.reps, hits, func() {
		fresh := 0
		for i := 0; i < hits; i++ {
			if _, _, f := memo.Do(keys[0], compute); f {
				fresh++
			}
		}
		p.check(fresh == 0 && memo.Len() == 1, "sweep.memo_hit: %d recomputations, %d entries", fresh, memo.Len())
	}))

	const emits = 5_000
	p.set("sweep.sink_emit_us", timePer(p.reps, emits, func() {
		var csv lineCounter
		sink := sweep.NewSink(nil, &csv, false, nil, nil, nil, false, true)
		for i := 0; i < emits; i++ {
			sink.Emit(keys[i%len(keys)], res)
		}
		sink.Close()
		p.check(csv.lines == emits+1, "sweep.sink_emit: %d CSV lines, want %d", csv.lines, emits+1)
	})/1e3)
}

// --- workload-specific layer measurements ----------------------------------
//
// These two run in the traced pass of the one workload that exercises the
// layer, not with the probes: they cost seconds, and on any other workload
// the prediction for them is "no change".

// sweepVariants runs the sweep plan's grid three more ways — flat on one
// worker, forked on one worker, flat on every worker — under one span
// each, and reports what forking and what the worker pool buy over flat,
// serial execution.
func sweepVariants(ctx context.Context, rec *recorder, sp *sweepPlan) (map[string]float64, error) {
	timed := func(name string, fork bool, nworkers int) (float64, *dsmsim.SweepResult, error) {
		s := rec.begin(name, -1, -1)
		r, err := sp.run(ctx, fork, nworkers)
		rec.end(s)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		return float64(rec.duration(s)), r, nil
	}
	flat1, _, err := timed("sweep.flat_1", false, 1)
	if err != nil {
		return nil, err
	}
	fork1, forked, err := timed("sweep.forked_1", true, 1)
	if err != nil {
		return nil, err
	}
	flatN, _, err := timed("sweep.flat_n", false, workers())
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sweep.fork_speedup":     flat1 / fork1,
		"sweep.parallel_speedup": flat1 / flatN,
		"sweep.forked_runs":      float64(forked.Fork.ForkedRuns),
		"sweep.prefixes":         float64(forked.Fork.Prefixes),
	}, nil
}

// observerReps is how often observerCosts runs each configuration.
const observerReps = 3

// observerCosts runs a run list with every observer off, then with each
// observer alone, and reports each one's cost as a ratio to off. planFor
// builds the run list with one tuning applied to every configuration.
func observerCosts(ctx context.Context, planFor func(tune func(*dsmsim.Config)) *plan) (map[string]float64, error) {
	cost := func(pl *plan) (wallNS, mallocs float64, err error) {
		var ms []float64
		var before, after runtime.MemStats
		wallNS = timePer(observerReps, 1, func() {
			runtime.ReadMemStats(&before)
			it := pl.iterate(ctx, nil, -1, nil)
			runtime.ReadMemStats(&after)
			ms = append(ms, float64(after.Mallocs-before.Mallocs))
			for _, e := range it.errs {
				if e != nil {
					err = e
				}
			}
		})
		return wallNS, median(ms), err
	}
	offNS, offMallocs, err := cost(planFor(nil))
	if err != nil {
		return nil, fmt.Errorf("observers off: %w", err)
	}
	out := map[string]float64{}
	for _, o := range observers {
		ns, mallocs, err := cost(planFor(o.On))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.Metric, err)
		}
		out[o.Metric+"_slowdown_x"] = ns / offNS
		out[o.Metric+"_mallocs_x"] = mallocs / offMallocs
	}
	return out, nil
}
