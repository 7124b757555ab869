// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models a cluster of nodes with virtual time. Simulated
// processors are represented as Procs: coroutines that run application or
// protocol code and explicitly yield to the engine whenever virtual time
// must pass (Sleep) or an external completion is awaited (Block/Unblock).
// Exactly one of them — either the engine itself or a single Proc — runs
// at any moment, so execution is fully deterministic: events fire in
// (time, sequence) order and identical inputs produce identical schedules.
package sim

import (
	"fmt"
	"sort"
	"strconv"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	// strconv into a stack buffer; AppendFloat with 'f'/3 rounds exactly
	// like fmt's %.3f, so output stays byte-identical to the Sprintf this
	// replaces while avoiding its two allocations per trace line.
	var buf [24]byte
	b := buf[:0]
	switch {
	case t >= Second:
		b = strconv.AppendFloat(b, float64(t)/float64(Second), 'f', 3, 64)
		b = append(b, 's')
	case t >= Millisecond:
		b = strconv.AppendFloat(b, float64(t)/float64(Millisecond), 'f', 3, 64)
		b = append(b, 'm', 's')
	case t >= Microsecond:
		b = strconv.AppendFloat(b, float64(t)/float64(Microsecond), 'f', 3, 64)
		b = append(b, 0xc2, 0xb5, 's') // µs
	default:
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, 'n', 's')
	}
	return string(b)
}

// event is a scheduled callback: a function applied to one argument. Hot
// callers (message delivery, proc resumption) pass a package-level function
// and a pointer — boxing a pointer into any does not allocate — and a plain
// closure rides as the argument of callFunc, so there is one form to carry,
// sift and dispatch. Events in the now-lane leave at and seq unset: their
// position in the lane is their order.
type event struct {
	at  Time
	seq uint64
	afn func(any)
	arg any
}

// before orders events by (time, sequence number).
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// callFunc is the afn behind Schedule: the closure is the argument. A func
// value is pointer-shaped, so it boxes without allocating.
func callFunc(arg any) { arg.(func())() }

// BlockedProc names one stuck proc in a deadlock report.
type BlockedProc struct {
	Name   string
	Reason string
}

// DeadlockError reports that the event queue drained while one or more Procs
// were still alive and blocked, i.e. nothing can ever make progress again.
type DeadlockError struct {
	// Procs lists the name and block reason of every stuck Proc.
	Procs []BlockedProc
}

// Error formats the report lazily — constructing a DeadlockError is cheap,
// the per-proc formatting and sort happen only if the message is read.
func (e *DeadlockError) Error() string {
	descs := make([]string, len(e.Procs))
	for i, p := range e.Procs {
		descs[i] = p.Name + " (" + p.Reason + ")"
	}
	sort.Strings(descs)
	return fmt.Sprintf("sim: deadlock, %d procs blocked: %v", len(descs), descs)
}

// LimitError reports that the next event was due after the SetLimit bound:
// the run was still making events — a retransmission timer backing off
// against a link that never heals, a protocol livelock — but not finishing.
type LimitError struct {
	Limit Time // the bound
	At    Time // when the event that crossed it was due
	// Procs lists every proc still alive, with its block reason ("" for one
	// that was merely asleep).
	Procs []BlockedProc
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: virtual time limit %v exceeded (event at %v)", e.Limit, e.At)
}

// Hooks are optional observability callbacks fired by the engine. They are
// purely observational — a hook must not schedule events, advance time, or
// touch procs — and each unset hook costs exactly one nil check on its
// path, so the instrumented engine is indistinguishable from the bare one
// when no hooks are attached.
type Hooks struct {
	// ProcBlock fires when a proc parks in Block or BlockID, with the
	// reason and id (-1 for none) as the caller passed them — unjoined, so
	// an attached hook costs no allocation. A deadlock report would show
	// them as Proc.Reason does: "reason", or "reason id".
	ProcBlock func(p *Proc, reason string, id int)
	// ProcUnblock fires when Unblock schedules a parked proc to resume.
	ProcUnblock func(p *Proc)
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The queue is three places, one order. events, a value-typed 4-ary
	// min-heap ordered by event.before, holds the future: everything
	// scheduled for an instant later than the one current at the time of the
	// call. timeouts holds the part of the future that arrives nearly sorted
	// (ScheduleTimeout): a slice kept in (time, seq) order by insertion from
	// the back, consumed from timeoutHead and reset when it drains; the
	// earlier of its front and the heap's top, by event.before, is the
	// earliest future event. lane, a FIFO consumed from laneHead and reset
	// when it drains, holds the rest: everything scheduled for the current
	// instant (or, clamped, an earlier one). A future event due at an instant
	// was scheduled before that instant became current, so it carries a
	// smaller seq than anything the lane holds: "the future events due now,
	// then the lane front to back" is (time, seq) order, and the clock moves
	// only once the lane is empty.
	events      []event
	timeouts    []event
	timeoutHead int
	lane        []event
	laneHead    int

	procs []*Proc
	slab  []Proc // backing store for procs, sized by ReserveProcs
	limit Time   // 0 means no limit
	hooks Hooks

	// interrupt, when set, is polled every interruptStride dispatched
	// events; a non-nil return aborts Run with that error. Used for
	// host-side cancellation (context.Context) of long simulations.
	interrupt      func() error
	interruptCount int

	// sampler, when set, fires at every multiple of sampleEvery that
	// virtual time crosses. It is not an event: the queue never sees it,
	// so it cannot reorder dispatches, keep Run alive, or advance the
	// final clock past the last real event. nextSample is the first
	// boundary not yet fired.
	sampler     func(boundary Time)
	sampleEvery Time
	nextSample  Time

	running   bool
	stopped   bool
	procPanic *procPanic
}

// interruptStride is how many events are dispatched between polls of the
// interrupt function: frequent enough that cancellation lands within
// microseconds of wall-clock time, rare enough that the check (typically
// an atomic context.Err) is invisible in profiles.
const interruptStride = 256

// NewEngine returns an engine with virtual time 0 and no events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seq returns the last sequence number assigned to a scheduled event.
// Together with Now it pins the engine's dispatch state for a checkpoint:
// restoring both on a fresh engine makes every subsequently scheduled event
// sort exactly as it would have in the original run.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvents returns the number of events still queued, in the heap, the
// timeout lane and the now-lane together. A checkpoint cut is only valid
// when this is zero: all procs blocked, nothing in flight.
func (e *Engine) PendingEvents() int {
	return len(e.events) + len(e.timeouts) - e.timeoutHead + len(e.lane) - e.laneHead
}

// RestoreClock sets the clock and event sequence counter on an engine that
// has not yet run, so a forked run continues the original (time, seq)
// ordering stream. Call before Run and before SetSampler.
func (e *Engine) RestoreClock(now Time, seq uint64) {
	e.now = now
	e.seq = seq
}

// SetLimit aborts Run with an error if virtual time would exceed limit.
// A limit of 0 (the default) means no limit.
func (e *Engine) SetLimit(limit Time) { e.limit = limit }

// SetHooks attaches observability callbacks (see Hooks). Call before Run.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// SetInterrupt installs fn, which Run polls every few hundred dispatched
// events; a non-nil return aborts Run with that error. The function must
// not touch engine state. Call before Run.
func (e *Engine) SetInterrupt(fn func() error) { e.interrupt = fn }

// SetSampler arranges for fn(boundary) to fire at every multiple of every
// (every, 2*every, ...) that virtual time crosses during Run. The sampler
// is strictly observational — like Hooks, fn must not schedule events,
// advance time, or touch procs — and it is not implemented as an event:
// Run fires all due boundaries immediately before dispatching the first
// event at or past them, so the event queue, the dispatch order, and the
// final value of Now are exactly what they would be with no sampler set.
// Boundaries past the last queued event never fire; callers that need a
// final partial interval flush it themselves after Run returns.
// Call before Run with every > 0, or with fn nil to clear.
func (e *Engine) SetSampler(every Time, fn func(boundary Time)) {
	if fn == nil {
		e.sampler, e.sampleEvery, e.nextSample = nil, 0, 0
		return
	}
	if every <= 0 {
		panic("sim: SetSampler with non-positive interval")
	}
	// On a restored clock (RestoreClock with now > 0) the boundaries at or
	// before now already fired in the run being continued; the next one due
	// is the first strict multiple of every past now.
	next := every
	if e.now > 0 {
		next = every * (e.now/every + 1)
	}
	e.sampler, e.sampleEvery, e.nextSample = fn, every, next
}

// Schedule registers fn to run at virtual time at. If at is in the past it
// runs at the current time (after already-queued events for that time).
// Schedule may be called from event callbacks and from Proc context.
// Both queues are reused across the run, so steady-state Schedule performs
// no allocation; fn itself still allocates if it is a capturing closure —
// hot paths should pass a preallocated func or use ScheduleArg.
func (e *Engine) Schedule(at Time, fn func()) { e.ScheduleArg(at, callFunc, fn) }

// ScheduleArg registers fn(arg) to run at virtual time at. With fn a
// package-level function and arg a pointer, the call is alloc-free, unlike
// Schedule with a capturing closure. An event for the current instant (or
// an earlier one) never enters the heap: it joins the now-lane, behind
// whatever is already due at this instant.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) {
	e.seq++
	if at <= e.now {
		e.lane = append(e.lane, event{afn: fn, arg: arg})
		return
	}
	e.push(at, fn, arg)
}

// ScheduleTimeout is ScheduleArg for events whose deadlines are armed in
// nearly increasing order and mostly expire with nothing left to do — a
// link layer's retransmission timers. The contract is the same (the event
// consumes a seq, fires in (time, seq) order among all events, and one due
// now or earlier joins the now-lane), but a future event stays out of the
// heap: it is inserted from the back into the sorted timeout lane and leaves
// from the front, O(1) each way while deadlines keep rising, so a standing
// population of timers does not deepen every other event's sift.
func (e *Engine) ScheduleTimeout(at Time, fn func(any), arg any) {
	e.seq++
	if at <= e.now {
		e.lane = append(e.lane, event{afn: fn, arg: arg})
		return
	}
	l := e.timeouts
	if h := e.timeoutHead; len(l) == cap(l) && h > 0 && h >= len(l)/2 {
		// Full, and at least half of it consumed: slide the live part to the
		// front instead of growing.
		n := copy(l, l[h:])
		clear(l[n:])
		l, e.timeoutHead = l[:n], 0
	}
	l = append(l, event{})
	// The new event carries the newest seq: it belongs behind every entry due
	// at the same instant or earlier.
	i := len(l) - 1
	for ; i > e.timeoutHead && l[i-1].at > at; i-- {
		l[i] = l[i-1]
	}
	l[i] = event{at: at, seq: e.seq, afn: fn, arg: arg}
	e.timeouts = l
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// AfterArg schedules fn(arg) to run d after the current virtual time.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) { e.ScheduleArg(e.now+d, fn, arg) }

// push adds an event carrying the newest seq to the heap (4-ary: children
// of i are 4i+1..4i+4; half the depth of a binary heap, so fewer cache
// misses per push/pop on the large queues protocol storms build). The new
// event sifts up as a hole — parents move down one at a time and the event
// is written once, where it lands. Its seq is larger than every queued one,
// so it passes a parent only on a strictly earlier time.
func (e *Engine) push(at Time, fn func(any), arg any) {
	h := append(e.events, event{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if at >= h[parent].at {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = event{at: at, seq: e.seq, afn: fn, arg: arg}
	e.events = h
}

// pop removes the earliest event into *top. The last event sifts down from
// the root as a hole: the earliest child moves up one level at a time and
// the last event is written once, where it lands.
func (e *Engine) pop(top *event) {
	h := e.events
	*top = h[0]
	n := len(h) - 1
	last := h[n]
	h[n].arg = nil // drop the reference so a completed event's argument can be GC'd
	h = h[:n]
	e.events = h
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
}

// popTimeout removes the timeout lane's front into *top.
func (e *Engine) popTimeout(top *event) {
	front := &e.timeouts[e.timeoutHead]
	*top = *front
	front.arg = nil
	if e.timeoutHead++; e.timeoutHead == len(e.timeouts) {
		e.timeouts, e.timeoutHead = e.timeouts[:0], 0
	}
}

// Stop makes Run return after the current event completes. Pending events,
// wherever they are queued, are discarded. Alive procs are killed.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue is empty and every Proc has finished.
// It returns a *DeadlockError if the queue drains while procs are blocked,
// or a *LimitError if SetLimit was exceeded. On return — by any path,
// including a proc's panic — every Proc body has ended, its worker is back
// on the idle list, and the queue is empty: events a Stop, an error or a
// panic left undispatched are dropped with the references they carry.
// Run must not be called from a goroutine locked to its OS thread: see Proc
// for the fatal error that follows.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() {
		e.running = false
		e.killAll()
		e.discardEvents()
	}()

	var ev event
	for !e.stopped {
		// The earliest future event — the heap's top or the timeout lane's
		// front — goes first while it is due at this instant; then the
		// now-lane, which must drain before the clock may move.
		var next *event
		if len(e.events) > 0 {
			next = &e.events[0]
		}
		fromTimeouts := false
		if len(e.timeouts) > 0 {
			if t := &e.timeouts[e.timeoutHead]; next == nil || t.before(next) {
				next, fromTimeouts = t, true
			}
		}
		fromFuture := next != nil && (len(e.lane) == 0 || next.at <= e.now)
		if !fromFuture && len(e.lane) == 0 {
			if blocked := e.blockedProcs(); len(blocked) > 0 {
				return &DeadlockError{Procs: blocked}
			}
			return nil
		}
		if e.interrupt != nil {
			if e.interruptCount++; e.interruptCount >= interruptStride {
				e.interruptCount = 0
				if err := e.interrupt(); err != nil {
					return err
				}
			}
		}
		if fromFuture {
			if fromTimeouts {
				e.popTimeout(&ev)
			} else {
				e.pop(&ev)
			}
			if e.limit > 0 && ev.at > e.limit {
				return &LimitError{Limit: e.limit, At: ev.at, Procs: e.blockedProcs()}
			}
			if e.sampler != nil {
				// Fire every sample boundary the clock is about to cross.
				// Boundaries are strictly after the previous event's time (all
				// earlier ones already fired), so advancing now to each keeps
				// the clock monotonic and lets the sampler read a consistent
				// Now() without perturbing when ev itself runs.
				for e.nextSample <= ev.at {
					e.now = e.nextSample
					e.sampler(e.nextSample)
					e.nextSample += e.sampleEvery
				}
			}
			e.now = ev.at
		} else {
			// Time does not advance: the limit held and every boundary up
			// to now fired when the clock got here.
			front := &e.lane[e.laneHead]
			ev.afn, ev.arg = front.afn, front.arg
			front.arg = nil
			if e.laneHead++; e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
		}
		ev.afn(ev.arg)
		if e.procPanic != nil {
			panic(e.procPanic.String())
		}
	}
	return nil
}

// discardEvents empties the queue, dropping what its events reference.
func (e *Engine) discardEvents() {
	clear(e.events)
	clear(e.timeouts)
	clear(e.lane)
	e.events, e.lane, e.laneHead = e.events[:0], e.lane[:0], 0
	e.timeouts, e.timeoutHead = e.timeouts[:0], 0
}

// blockedProcs collects every alive proc for a deadlock or limit report.
// Formatting and ordering happen lazily in DeadlockError.Error.
func (e *Engine) blockedProcs() []BlockedProc {
	var out []BlockedProc
	for _, p := range e.procs {
		if !p.done {
			out = append(out, BlockedProc{Name: p.name, Reason: p.Reason()})
		}
	}
	return out
}

// killAll unwinds every proc still parked in a yield: marked killed and
// resumed once, its body panics procKilled out of the yield, and its worker
// goes back to the idle list. A done proc still holding a worker called
// runtime.Goexit, which ended the worker too: it is dropped. Procs never
// resumed hold no worker; they are only marked done.
func (e *Engine) killAll() {
	for _, p := range e.procs {
		if w := p.w; w != nil {
			p.w = nil
			if !p.done {
				p.killed = true
				w.next()
				releaseWorker(w)
			}
		}
		p.done = true
	}
}
