// Package trace is the structured, virtual-time-stamped event tracer
// threaded through the whole simulator: engine proc scheduling, network
// send/deliver/service, memory faults and tag transitions, protocol
// operations (fetches, diffs, write notices, forwarding) and
// synchronization (lock and barrier waits).
//
// Events carry {time, node, category, name, args}. A run writes them in
// one format: a deterministic line format (one event per line, fixed-width,
// integer nanosecond timestamps) built for golden-diff testing — identical
// runs produce byte-identical traces. Chrome turns a line trace into Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing, with one process per simulated node and one named track
// per category, and protocol operations rendered as duration spans.
//
// Tracing is strictly observational: the tracer never schedules events or
// advances virtual time, so enabling it cannot perturb the timing model.
// It is also zero-cost when disabled: every instrumentation site holds a
// *Tracer that is nil when tracing is off and guards its emit (and the
// construction of the event's arguments) behind a single nil check.
//
// Enabled, an event costs no allocation and no formatting where it is
// emitted: the emitting method copies it into a record of the tracer's
// current batch and its args onto the batch's arena. A full batch goes to
// the tracer's own encoder goroutine, which formats the lines and writes
// them through a bufio.Writer, so the simulation and the encoding run side
// by side. The emitter waits only when every batch of the tracer's ring is
// still waiting to be encoded: a slow sink slows the run instead of
// growing the trace in memory. Rings are recycled through a process-wide
// mem.List.
package trace

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"

	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// Event categories, one per instrumented subsystem. Each maps to a named
// track in the Perfetto view of the trace.
const (
	CatSim   = "sim"   // engine: proc block/unblock
	CatNet   = "net"   // network: send, deliver, service spans
	CatMem   = "mem"   // memory: access-fault spans, tag transitions
	CatProto = "proto" // protocol: fetch, twin/diff, inval, forwarding
	CatSynch = "synch" // synchronization: lock/barrier waits, intervals
	CatCrit  = "crit"  // critical path: per-node lanes of the recovered chain
)

// Arg is one integer event argument. Args are deliberately scalar so the
// line format stays deterministic and allocation stays bounded.
type Arg struct {
	Key string
	Val int64
}

// A constructs an Arg (keyed-literal noise saver for call sites).
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Bool converts a flag to an Arg value.
func Bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Event is one trace record. Instant events have Dur == 0 and Span false;
// duration spans cover [Time, Time+Dur].
type Event struct {
	Time sim.Time // start time (virtual ns)
	Dur  sim.Time // span length; 0 for instants
	Node int      // emitting node id
	Cat  string   // one of the Cat* constants
	Name string   // event name, e.g. "fault", "send", "diff"
	Str  string   // optional free-form detail, rendered as msg="..."
	Span bool     // duration span (Chrome "X") vs instant ("i")
	Args []Arg
}

// Tracer writes events to its sink in the line format. A nil *Tracer is
// the disabled tracer: every method is a safe no-op, and instrumentation
// sites additionally nil-check before building arguments so disabled
// tracing costs one predictable branch.
//
// The emitting side — every method but Flush and Close — is the run's
// simulation; the encoding side is the tracer's own goroutine, the only one
// that touches line.
type Tracer struct {
	eng  *sim.Engine
	ring *ring
	cur  *batch // the batch the emitting methods fill
	line *bufio.Writer
}

// record is one event as the emitting side copies it: everything
// appendLine reads, its args the next nargs of the batch's arena.
type record struct {
	time, dur      sim.Time
	node, id       int
	cat, name, str string
	nargs          int32
	span           bool
}

// batch is a run of records in emit order, with their args laid end to end.
type batch struct {
	recs []record
	args []Arg
}

// A ring's batches hold batchRecords records and four args a record
// between them; a full batch goes to the encoder whole.
const (
	ringBatches  = 4
	batchRecords = 512
	batchArgs    = 4 * batchRecords
)

// ring is what passes between one tracer's two sides: empty batches come
// back on free, filled ones go out on full, in emit order, and nil on full
// asks the encoder to flush, answered on done. The emitter holds one batch
// and blocks only when the others all wait on full — that is the
// backpressure, and all the memory a tracer holds.
type ring struct {
	free, full chan *batch
	done       chan error
	line       []byte // the line the encoder is writing
}

// stop on full ends the encoder, which answers on done once it has.
var stop = new(batch)

// rings is the idle list of rings, shared by every tracer of the process,
// so a traced run after the first allocates none.
var rings mem.List[*ring]

// drawRing takes an idle ring, or makes one with every batch on free.
func drawRing() *ring {
	if r, ok := rings.Get(); ok {
		return r
	}
	r := &ring{free: make(chan *batch, ringBatches), full: make(chan *batch, ringBatches), done: make(chan error)}
	for range ringBatches {
		r.free <- &batch{recs: make([]record, 0, batchRecords), args: make([]Arg, 0, batchArgs)}
	}
	return r
}

// New creates a tracer reading virtual time from eng and writing the line
// format to w, and starts its encoder: every Write to w is made from the
// encoder's goroutine. Flush writes out what was emitted so far; Close
// does too, and ends the encoder — call it once the run is over, however
// it ended.
func New(eng *sim.Engine, w io.Writer) *Tracer {
	t := &Tracer{eng: eng, ring: drawRing(), line: bufio.NewWriter(w)}
	t.cur = <-t.ring.free
	go t.encode()
	return t
}

// Instant emits a zero-duration event at the current virtual time.
func (t *Tracer) Instant(node int, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.slot(args).set(t.eng.Now(), 0, node, -1, cat, name, "", false)
}

// InstantMsg is Instant with a free-form string detail.
func (t *Tracer) InstantMsg(node int, cat, name, msg string, args ...Arg) {
	if t == nil {
		return
	}
	t.slot(args).set(t.eng.Now(), 0, node, -1, cat, name, msg, false)
}

// InstantMsgID is InstantMsg for details of the form "msg N" (a blocking
// reason and its block number or lock id): the encoder joins the two, so
// the caller never builds the string. A negative id renders msg alone.
func (t *Tracer) InstantMsgID(node int, cat, name, msg string, id int) {
	if t == nil {
		return
	}
	t.slot(nil).set(t.eng.Now(), 0, node, id, cat, name, msg, false)
}

// Span emits a duration event covering [start, now]. Call it when the
// operation completes; the line format stamps the start time and carries
// the duration as dur=<ns>.
func (t *Tracer) Span(node int, cat, name string, start sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.slot(args).set(start, t.eng.Now()-start, node, -1, cat, name, "", true)
}

// SpanAt emits a duration event covering [start, end], for a span that
// is recorded after the fact (the critical path, painted at run end).
func (t *Tracer) SpanAt(node int, cat, name string, start, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.slot(args).set(start, end-start, node, -1, cat, name, "", true)
}

// slot copies args onto the current batch's arena and returns the record
// they belong to, for the caller to fill in place — handing the batch to
// the encoder first when the two do not fit.
func (t *Tracer) slot(args []Arg) *record {
	b := t.cur
	if len(b.recs) == cap(b.recs) || len(b.args)+len(args) > cap(b.args) {
		b = t.handOver()
	}
	b.args = append(b.args, args...)
	b.recs = b.recs[:len(b.recs)+1]
	r := &b.recs[len(b.recs)-1]
	r.nargs = int32(len(args))
	return r
}

// set fills every field of r but nargs: a slot is a reused record.
func (r *record) set(time, dur sim.Time, node, id int, cat, name, str string, span bool) {
	r.time, r.dur, r.node, r.id = time, dur, node, id
	r.cat, r.name, r.str, r.span = cat, name, str, span
}

// handOver sends the current batch to the encoder, if it holds anything,
// and takes an empty one — waiting for it while every batch is full.
func (t *Tracer) handOver() *batch {
	if len(t.cur.recs) > 0 {
		t.ring.full <- t.cur
		t.cur = <-t.ring.free
	}
	return t.cur
}

// encode is the encoder's goroutine: it writes each batch's lines in
// order and gives the batch back, and flushes the sink when asked. A
// failed Write stays with the bufio.Writer, which returns it from every
// later Write and from Flush.
func (t *Tracer) encode() {
	r := t.ring
	for {
		b := <-r.full
		switch b {
		case nil:
			r.done <- t.line.Flush()
			continue
		case stop:
			r.done <- nil
			return
		}
		args := b.args
		for i := range b.recs {
			rec := &b.recs[i]
			e := Event{Time: rec.time, Dur: rec.dur, Node: rec.node, Cat: rec.cat, Name: rec.name,
				Str: rec.str, Span: rec.span, Args: args[:rec.nargs]}
			args = args[rec.nargs:]
			r.line = appendLine(r.line[:0], &e, rec.id)
			t.line.Write(r.line)
		}
		b.recs, b.args = b.recs[:0], b.args[:0]
		r.free <- b
	}
}

// Flush hands the encoder what was emitted so far, waits until it is
// written to the sink, and returns the first error writing it.
func (t *Tracer) Flush() error {
	if t == nil || t.ring == nil {
		return nil
	}
	t.handOver()
	t.ring.full <- nil
	return <-t.ring.done
}

// Close flushes, ends the encoder and gives its ring back; the tracer must
// not be used afterwards, and a second Close is a no-op.
func (t *Tracer) Close() error {
	if t == nil || t.ring == nil {
		return nil
	}
	err := t.Flush()
	r := t.ring
	r.full <- stop
	<-r.done
	r.free <- t.cur
	t.ring, t.cur = nil, nil
	rings.Put(r) // every batch on free and empty
	return err
}

// appendNodeName renders a node id as "node<id>".
func appendNodeName(b []byte, node int) []byte {
	return strconv.AppendInt(append(b, "node"...), int64(node), 10)
}

// appendPad appends n spaces (none for n <= 0).
func appendPad(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// plain reports whether s is printable ASCII without a quote or a
// backslash — every string the simulator emits. Such a string quotes to
// itself in Go and in JSON alike.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendQuote appends strconv.Quote(s), skipping strconv for a plain s.
func appendQuote(b []byte, s string) []byte {
	if !plain(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendMsg appends the quoted detail: strconv.Quote(s), or
// strconv.Quote(s+" "+id) when id is non-negative — the id, all ASCII,
// quotes to itself whatever s ends in.
func appendMsg(b []byte, s string, id int) []byte {
	b = appendQuote(b, s)
	if id >= 0 {
		b = strconv.AppendInt(append(b[:len(b)-1], ' '), int64(id), 10)
		b = append(b, '"')
	}
	return b
}

// appendLine renders one event in the deterministic line format, laid out
// as fmt's "%12d %-5s %-7s %s" would:
//
//	<ns:12> <cat:5> <node:7> <name> [dur=<ns>] [k=v ...] [msg="..."]
func appendLine(b []byte, e *Event, id int) []byte {
	var num [20]byte
	ts := strconv.AppendInt(num[:0], int64(e.Time), 10)
	b = append(appendPad(b, 12-len(ts)), ts...)
	b = append(append(b, ' '), e.Cat...)
	b = appendPad(b, 5-utf8.RuneCountInString(e.Cat))
	b = append(b, ' ')
	n := len(b)
	b = appendNodeName(b, e.Node)
	b = appendPad(b, 7-(len(b)-n))
	b = append(append(b, ' '), e.Name...)
	if e.Span {
		b = strconv.AppendInt(append(b, " dur="...), int64(e.Dur), 10)
	}
	for _, a := range e.Args {
		b = append(append(append(b, ' '), a.Key...), '=')
		b = strconv.AppendInt(b, a.Val, 10)
	}
	if e.Str != "" {
		b = appendMsg(append(b, " msg="...), e.Str, id)
	}
	return append(b, '\n')
}
