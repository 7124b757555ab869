package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// oracle is the queue discipline the engine promises, with none of its
// machinery: one list, stable-sorted by (time, seq) whenever the earliest
// entry is wanted. The property test feeds it every scheduling call the
// engine gets and asks it what each dispatch should have been.
type oracle struct {
	now, limit        Time
	seq               uint64
	q                 []oracleEvent
	every, nextSample Time // every == 0: no sampler
	samples           []Time
	stopped           bool
}

type oracleEvent struct {
	at  Time
	seq uint64
	id  int
}

func (o *oracle) schedule(at Time, id int) {
	o.seq++
	o.q = append(o.q, oracleEvent{max(at, o.now), o.seq, id})
}

func (o *oracle) sort() {
	slices.SortStableFunc(o.q, func(a, b oracleEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

// pop advances the clock to the earliest entry, firing the sample
// boundaries on the way.
func (o *oracle) pop() oracleEvent {
	o.sort()
	ev := o.q[0]
	o.q = o.q[1:]
	for ; o.every > 0 && o.nextSample <= ev.at; o.nextSample += o.every {
		o.samples = append(o.samples, o.nextSample)
	}
	o.now = ev.at
	return ev
}

// sleepsInPlace is the rule for Sleep's fast path: a proc may move the clock
// to at itself only when Run's loop would have had nothing to do before
// resuming it there.
func (o *oracle) sleepsInPlace(at Time) bool {
	o.sort()
	return (len(o.q) == 0 || at < o.q[0].at) && !o.stopped &&
		(o.limit == 0 || at <= o.limit) && (o.every == 0 || at < o.nextSample)
}

// orderRun is one randomised program running on an engine with the oracle in
// lock step. Ids below len(procs) name a proc's resume event, the rest are
// plain callbacks.
type orderRun struct {
	e      *Engine
	o      *oracle
	rng    *rand.Rand
	procs  []*Proc
	nextID int
	budget int // scheduling calls left, so every program ends
	failed string
	log    []string

	finished, inPlace, yielded int // bodies that returned; Sleeps by path
	timeouts                   int // ScheduleTimeout calls for a later instant
}

func (r *orderRun) failf(format string, args ...any) {
	if r.failed == "" {
		r.failed = fmt.Sprintf(format, args...)
		r.e.Stop()
		r.o.stopped = true
	}
}

// dispatched is called first thing by whatever the engine just dispatched.
func (r *orderRun) dispatched(id int) {
	if len(r.o.q) == 0 {
		r.failf("engine dispatched %d at %v, oracle has nothing queued", id, r.e.Now())
		return
	}
	want := r.o.pop()
	r.log = append(r.log, fmt.Sprintf("%d@%d", id, r.e.Now()))
	if want.id != id || want.at != r.e.Now() || r.o.seq != r.e.Seq() {
		r.failf("engine dispatched %d at %v (seq %d), oracle %d at %v (seq %d)\n%s",
			id, r.e.Now(), r.e.Seq(), want.id, want.at, r.o.seq, strings.Join(r.log, " "))
	}
	if got, want := r.e.PendingEvents(), len(r.o.q); got != want {
		r.failf("PendingEvents() = %d inside dispatch of %d, oracle holds %d", got, id, want)
	}
}

// when picks a target time: the current instant, the past, or one of a few
// near futures (few, so that ties are common).
func (r *orderRun) when() Time {
	switch r.rng.Intn(6) {
	case 0, 1:
		return r.e.Now()
	case 2:
		return r.e.Now() - Time(r.rng.Intn(20))
	default:
		return r.e.Now() + Time(r.rng.Intn(8))
	}
}

// scheduleCallback schedules a fresh callback through one of the five
// scheduling calls.
func (r *orderRun) scheduleCallback() { r.schedule(r.when(), r.rng.Intn(5)) }

func (r *orderRun) schedule(at Time, call int) {
	if r.budget--; r.budget < 0 {
		return
	}
	id := r.nextID
	r.nextID++
	fn := func() {
		r.dispatched(id)
		r.act(nil)
	}
	switch call {
	case 0:
		r.e.Schedule(at, fn)
	case 1:
		r.e.ScheduleArg(at, callFunc, fn)
	case 2:
		r.e.After(at-r.e.Now(), fn)
	case 3:
		r.e.AfterArg(at-r.e.Now(), callFunc, fn)
	default:
		r.e.ScheduleTimeout(at, callFunc, fn)
		if at > r.e.Now() {
			r.timeouts++
		}
	}
	r.o.schedule(at, id)
}

// armTimeouts arms a burst of timeouts in one of the orders the timeout lane
// has to sort: deadlines that mostly rise (what a link layer produces),
// deadlines that fall, or a far deadline followed by many near ones.
func (r *orderRun) armTimeouts() {
	now := r.e.Now()
	base := now + Time(r.rng.Intn(10))
	shape := r.rng.Intn(3)
	for i, n := 0, 2+r.rng.Intn(6); i < n; i++ {
		at := base
		switch shape {
		case 0:
			at += Time(2*i - r.rng.Intn(3))
		case 1:
			at += Time(2 * (n - i))
		default:
			if i == 0 {
				at += 25
			} else {
				at = now + Time(r.rng.Intn(6))
			}
		}
		r.schedule(at, 4)
	}
}

func (r *orderRun) unblockOne() {
	start := r.rng.Intn(len(r.procs))
	for i := range r.procs {
		if p := r.procs[(start+i)%len(r.procs)]; p.Blocked() {
			p.Unblock()
			r.o.schedule(r.o.now, p.Index())
			return
		}
	}
}

// act does a few random things from engine context (p nil) or from inside
// proc p.
func (r *orderRun) act(p *Proc) {
	for n := r.rng.Intn(4); n > 0 && r.failed == ""; n-- {
		switch k := r.rng.Intn(10); {
		case k < 3:
			r.scheduleCallback()
		case k == 3:
			if r.rng.Intn(2) == 0 {
				r.armTimeouts()
			} else {
				r.scheduleCallback()
			}
		case k < 7:
			r.unblockOne()
		case k == 7 && r.rng.Intn(40) == 0:
			r.e.Stop()
			r.o.stopped = true
		case p != nil && k == 8:
			r.sleep(p, 0)
		case p != nil:
			r.sleep(p, Time(r.rng.Intn(12)))
		}
	}
}

func (r *orderRun) sleep(p *Proc, d Time) {
	at := r.e.Now() + d
	if r.o.sleepsInPlace(at) {
		r.o.now = at
		r.inPlace++
		p.Sleep(d)
		if r.e.Now() != at || r.e.Seq() != r.o.seq {
			r.failf("Sleep(%d) of %s: engine at %v seq %d, oracle moved the clock in place to %v seq %d",
				d, p.Name(), r.e.Now(), r.e.Seq(), at, r.o.seq)
		}
		return
	}
	r.o.schedule(at, p.Index())
	r.yielded++
	p.Sleep(d)
	r.dispatched(p.Index())
}

func (r *orderRun) body(p *Proc) {
	r.dispatched(p.Index())
	for steps := 3 + r.rng.Intn(12); steps > 0 && r.failed == ""; steps-- {
		r.act(p)
		if r.rng.Intn(3) == 0 {
			p.Block("order test")
			r.dispatched(p.Index())
		}
	}
	r.finished++
}

// TestOrderMatchesSortOracle: whatever a program does — schedule for now, the
// past or the future, from callbacks and from procs, through all five
// scheduling calls, timeouts armed in rising, falling and far-then-near
// order; Sleep(0) and Sleep(d) on either path; Unblock chains;
// Stop; under a sampler, a limit, proc hooks, a restored clock — the
// engine dispatches exactly what a stable sort by (time, seq) would, and ends
// on the same clock and sequence number with nothing left queued.
func TestOrderMatchesSortOracle(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	// What the seeds got to, so a generator that stops reaching a path fails
	// the test instead of passing it vacuously.
	var inPlace, yielded, timeouts, stops, deadlocks, limits int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		e := NewEngine()
		r := &orderRun{e: e, o: &oracle{}, rng: rng, budget: 40 + rng.Intn(200)}
		o := r.o
		if rng.Intn(3) == 0 {
			o.now, o.seq = Time(1+rng.Intn(100)), uint64(rng.Intn(1000))
			e.RestoreClock(o.now, o.seq)
		}
		if rng.Intn(3) == 0 {
			o.limit = o.now + Time(20+rng.Intn(60))
			e.SetLimit(o.limit)
		}
		var sampled []Time
		if rng.Intn(3) == 0 {
			o.every = Time(1 + rng.Intn(9))
			o.nextSample = o.every * (o.now/o.every + 1)
			e.SetSampler(o.every, func(b Time) {
				if e.Now() != b {
					r.failf("sampler for boundary %v ran at %v", b, e.Now())
				}
				sampled = append(sampled, b)
			})
		}
		if rng.Intn(4) == 0 {
			// Proc hooks observe procs, not the queue: attached, they leave the
			// order and Sleep's fast path alone.
			e.SetHooks(Hooks{
				ProcBlock:   func(*Proc, string, int) {},
				ProcUnblock: func(*Proc) {},
			})
		}
		nprocs := 1 + rng.Intn(5)
		if rng.Intn(2) == 0 {
			e.ReserveProcs(nprocs)
		}
		r.nextID = nprocs
		for i := 0; i < nprocs; i++ {
			name := fmt.Sprintf("p%d", i)
			if rng.Intn(5) == 0 {
				r.procs = append(r.procs, e.NewProcBlocked(name, "born blocked", -1, r.body))
				continue
			}
			start := r.when()
			r.procs = append(r.procs, e.NewProc(name, start, r.body))
			o.schedule(start, i)
		}
		for n := rng.Intn(6); n > 0; n-- {
			r.scheduleCallback()
		}

		err := e.Run()

		var deadlock *DeadlockError
		switch {
		case r.failed != "":
			t.Fatalf("seed %d: %s", seed, r.failed)
		case o.stopped:
			stops++
			if err != nil {
				t.Fatalf("seed %d: Run after Stop = %v", seed, err)
			}
		case err == nil:
			if len(o.q) != 0 || r.finished != nprocs {
				t.Fatalf("seed %d: Run returned with the oracle holding %d events and %d of %d procs finished",
					seed, len(o.q), r.finished, nprocs)
			}
		case errors.As(err, &deadlock):
			deadlocks++
			if len(o.q) != 0 || len(deadlock.Procs) != nprocs-r.finished {
				t.Fatalf("seed %d: %v with the oracle holding %d events and %d of %d procs finished",
					seed, err, len(o.q), r.finished, nprocs)
			}
		default: // the limit
			limits++
			var limit *LimitError
			if o.sort(); !errors.As(err, &limit) || limit.Limit != o.limit || len(o.q) == 0 || o.q[0].at <= o.limit ||
				limit.At != o.q[0].at || len(limit.Procs) != nprocs-r.finished {
				t.Fatalf("seed %d: Run = %#v, oracle limit %v queue %v, %d of %d procs finished",
					seed, err, o.limit, o.q, r.finished, nprocs)
			}
		}
		if e.Now() != o.now || e.Seq() != o.seq {
			t.Fatalf("seed %d: engine ended at %v seq %d, oracle at %v seq %d", seed, e.Now(), e.Seq(), o.now, o.seq)
		}
		if !slices.Equal(sampled, o.samples) {
			t.Fatalf("seed %d: sampler fired at %v, oracle at %v", seed, sampled, o.samples)
		}
		if n := e.PendingEvents(); n != 0 {
			t.Fatalf("seed %d: %d events still queued after Run", seed, n)
		}
		inPlace += r.inPlace
		yielded += r.yielded
		timeouts += r.timeouts
	}
	if inPlace == 0 || yielded == 0 || timeouts == 0 || stops == 0 || deadlocks == 0 || limits == 0 {
		t.Fatalf("generator lost a path: %d in-place and %d yielding Sleeps, %d timeouts, %d stops, %d deadlocks, %d limit errors",
			inPlace, yielded, timeouts, stops, deadlocks, limits)
	}
}
