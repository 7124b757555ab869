package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"strconv"

	"dsmsim/internal/mem"
)

// procKilled is the panic value used to unwind a Proc's body when the
// engine shuts down before the proc finished.
type procKilled struct{}

// procPanic carries an application panic from a proc's coroutine to the
// engine goroutine.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (p *procPanic) String() string {
	return fmt.Sprintf("sim: proc %s panicked: %v\n%s", p.proc, p.value, p.stack)
}

// Proc is a simulated thread of control (one per simulated processor).
// Its body runs on a worker coroutine of the engine (iter.Pull, see worker):
// the engine's resume event switches directly to it, and every Sleep or
// Block switches directly back. No scheduler queue is involved in either
// direction, and exactly one side runs at any moment — the execution baton.
// The worker is drawn from a process-wide idle list at the proc's first
// resume and goes back once the body has ended, so a warm run starts its
// procs without creating a goroutine. Because a worker may have been made
// on another goroutine, Run must not be called from a goroutine locked to
// its OS thread (runtime.LockOSThread, or a cgo callback): the runtime's
// coroutine switch requires the thread locks to match those at the
// coroutine's creation, and when they differ it stops the process with a
// fatal error — not an error, not a panic a recover could catch. A worker
// made under a lock goes back to the idle list all the same, so a later,
// unlocked Run that draws it dies the same way.
//
// All Proc methods except Unblock must be called from inside the proc's own
// body. Unblock must be called from engine context (an event callback or
// another proc holding the baton).
type Proc struct {
	e     *Engine
	name  string
	index int
	body  func(*Proc)

	// w is the worker running the body, from the first resume until the
	// body ends; nil before, so a proc that never runs holds no goroutine.
	w *worker

	done    bool
	blocked bool
	// killed is set by killAll on a proc parked in a yield: resumed once
	// more, the proc panics procKilled out of yieldToEngine to unwind.
	killed bool

	// reason (+ optional reasonID, -1 if unset) says why the proc is
	// blocked. Kept unformatted: Reason() joins them only when a deadlock
	// report actually reads the string.
	reason   string
	reasonID int
}

// worker is one iter.Pull coroutine that runs proc bodies one after
// another: it runs proc's body, yields once the body has ended, and, resumed
// with the next proc set, runs that one from the top. A worker whose body
// called runtime.Goexit has ended with it and is never reused.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Proc // whose body runs: set when drawn, nil while idle
}

// maxIdleWorkers bounds the idle list: one 1024-node run — the largest
// machine a run builds — finds every worker it needs there, warm, when the
// run before it ended. It is the one bounded list (mem.List): a worker is a
// parked goroutine, which no collection ends, so a worker given back to a
// full list is stopped instead.
const maxIdleWorkers = 1024

// workers is the idle list, shared by every engine of the process (a sweep
// runs engines on several goroutines).
var workers = mem.List[*worker]{Bound: maxIdleWorkers}

// drawWorker takes an idle worker, or makes one.
func drawWorker() *worker {
	if w, ok := workers.Get(); ok {
		return w
	}
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// releaseWorker gives back a worker whose body has ended, or stops it.
func releaseWorker(w *worker) {
	if !workers.Put(w) {
		w.stop()
	}
}

// loop is the worker's coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.proc.run()
		w.proc = nil
		if !yield(struct{}{}) {
			return // stopped off a full idle list
		}
	}
}

// ReserveProcs sizes the engine for n more procs: the next n NewProc or
// NewProcBlocked calls take their Proc from one slab instead of allocating
// each, and the heap and the now-lane come out of one allocation sized for
// what n procs keep in flight — the lane holds n start events or a barrier's n
// wake-ups, the heap about two events per proc. Purely a host-cost hint;
// procs and events beyond the reservation still work.
func (e *Engine) ReserveProcs(n int) {
	e.slab = make([]Proc, 0, n)
	e.procs = slices.Grow(e.procs, n)
	queues := make([]event, 3*n)
	e.events = append(queues[:0:2*n], e.events...)
	e.lane = append(queues[2*n:2*n:3*n], e.lane[e.laneHead:]...)
	e.laneHead = 0
}

func (e *Engine) newProc(name string, body func(*Proc)) *Proc {
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]Proc, 0, 1) // nothing reserved: one Proc at a time
	}
	e.slab = append(e.slab, Proc{e: e, name: name, index: len(e.procs), body: body, reasonID: -1})
	p := &e.slab[len(e.slab)-1]
	e.procs = append(e.procs, p)
	return p
}

// NewProc registers a proc whose body starts running at time start.
// The body receives the proc itself so it can Sleep and Block.
func (e *Engine) NewProc(name string, start Time, body func(*Proc)) *Proc {
	p := e.newProc(name, body)
	e.ScheduleArg(start, resumeProc, p)
	return p
}

// NewProcBlocked registers a proc that is born parked in Block(reason) with
// the given reason id (-1 for none), as if it had run up to that Block call
// already. No start event is scheduled: the first Unblock-driven resume
// draws the worker, at which point body runs from the top — the caller
// arranges for body to be the continuation of the blocked call. Used to
// restore proc state from a checkpoint, where the original stacks cannot be
// captured.
func (e *Engine) NewProcBlocked(name, reason string, id int, body func(*Proc)) *Proc {
	p := e.newProc(name, body)
	p.blocked = true
	p.reason = reason
	p.reasonID = id
	return p
}

// resumeProc is the event callback behind every proc start, Sleep wake-up
// and Unblock: it switches to the proc's worker, drawing one at the first
// resume, and returns when the proc next yields or its body ends — then the
// worker goes back to the idle list. A package-level function scheduled with
// the proc as argument, so waking a proc never allocates.
func resumeProc(arg any) {
	p := arg.(*Proc)
	w := p.w
	if w == nil {
		w = drawWorker()
		w.proc, p.w = p, w
	}
	// A runtime.Goexit inside the body (t.FailNow) resurfaces here, on the
	// goroutine that called Run, and the dead worker stays with the proc.
	w.next()
	if p.done {
		p.w = nil
		releaseWorker(w)
	}
}

// run is the proc's body, as its worker runs it.
func (p *Proc) run() {
	defer func() {
		p.done = true
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				// Hand application bugs to the engine, which re-panics them
				// with the body's own stack attached.
				p.e.procPanic = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
			}
		}
	}()
	p.body(p)
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Index returns the proc's position among its engine's procs, in creation
// order from 0.
func (p *Proc) Index() int { return p.index }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.e }

// yieldToEngine parks the proc until the engine resumes it. A killed proc
// unwinds instead, here and at every later attempt to park (a deferred
// Sleep or Block in the body).
func (p *Proc) yieldToEngine() {
	if !p.killed {
		p.w.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep advances the proc's virtual time by d. Other events may run in
// between. d <= 0 yields without advancing time (other events scheduled for
// the current instant run first).
func (p *Proc) Sleep(d Time) {
	e := p.e
	at := e.now
	if d > 0 {
		at += d
	}
	// Fast path: if nothing else is due before (or at) the wake-up time,
	// skipping the schedule/dispatch round trip — two coroutine switches and
	// a heap push/pop — cannot change what runs when: advance the clock in
	// place and keep going. Events scheduled strictly later keep their
	// relative order because their sequence numbers are untouched.
	// Conditions that force the slow path: an event due at or before `at`
	// (it must run first) — the heap's earliest, the timeout lane's front, or
	// anything at all in the now-lane, which must drain before the clock
	// moves — a pending Stop or time limit (Run's loop must see this
	// wake-up), an interrupt poll falling due (the poll happens in Run's
	// loop), or a sample boundary inside (now, at] (boundaries fire in Run's
	// loop, so the wake-up must travel through it).
	if (len(e.events) == 0 || at < e.events[0].at) &&
		(len(e.timeouts) == 0 || at < e.timeouts[e.timeoutHead].at) && len(e.lane) == 0 &&
		!e.stopped &&
		(e.limit == 0 || at <= e.limit) &&
		(e.sampler == nil || at < e.nextSample) {
		if e.interrupt != nil {
			if e.interruptCount+1 >= interruptStride {
				goto slow
			}
			e.interruptCount++
		}
		e.now = at
		return
	}
slow:
	e.ScheduleArg(at, resumeProc, p)
	p.yieldToEngine()
}

// Block parks the proc until Unblock is called. reason appears in deadlock
// reports. Block panics if the proc is already blocked (a bug).
func (p *Proc) Block(reason string) {
	p.block(reason, -1)
}

// BlockID is Block for reasons of the form "reason N" (a block number, a
// lock id): the id is carried unformatted and only joined to the string if
// the reason is ever displayed, keeping fault-path blocking alloc-free.
func (p *Proc) BlockID(reason string, id int) {
	p.block(reason, id)
}

func (p *Proc) block(reason string, id int) {
	if p.blocked {
		panic(fmt.Sprintf("sim: proc %s double-blocked (%s, was %s)", p.name, reason, p.Reason()))
	}
	p.blocked = true
	p.reason = reason
	p.reasonID = id
	if p.e.hooks.ProcBlock != nil {
		p.e.hooks.ProcBlock(p, reason, id)
	}
	p.yieldToEngine()
}

// Reason formats why the proc is blocked ("" if it is not).
func (p *Proc) Reason() string {
	if p.reasonID < 0 {
		return p.reason
	}
	return p.reason + " " + strconv.Itoa(p.reasonID)
}

// Blocked reports whether the proc is currently parked in Block.
func (p *Proc) Blocked() bool { return p.blocked }

// Done reports whether the proc's body has finished.
func (p *Proc) Done() bool { return p.done }

// Unblock schedules the proc to resume at the current virtual time. It must
// be called from engine context, and panics if the proc is not blocked:
// wakeups in this simulator are always targeted, never racy.
func (p *Proc) Unblock() {
	if !p.blocked {
		panic(fmt.Sprintf("sim: Unblock of non-blocked proc %s", p.name))
	}
	p.blocked = false
	p.reason = ""
	p.reasonID = -1
	if p.e.hooks.ProcUnblock != nil {
		p.e.hooks.ProcUnblock(p)
	}
	p.e.ScheduleArg(p.e.now, resumeProc, p)
}
