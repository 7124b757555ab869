// Package trace is the structured, virtual-time-stamped event tracer
// threaded through the whole simulator: engine proc scheduling, network
// send/deliver/service, memory faults and tag transitions, protocol
// operations (fetches, diffs, write notices, forwarding) and
// synchronization (lock and barrier waits).
//
// Events carry {time, node, category, name, args} and are exported in two
// formats simultaneously:
//
//   - a deterministic line format (one event per line, fixed-width,
//     integer nanosecond timestamps) built for golden-diff testing —
//     identical runs produce byte-identical traces;
//   - Chrome trace-event JSON, loadable in Perfetto
//     (https://ui.perfetto.dev) or chrome://tracing, with one process per
//     simulated node and one named track per category, and protocol
//     operations rendered as duration spans.
//
// Tracing is strictly observational: the tracer never schedules events or
// advances virtual time, so enabling it cannot perturb the timing model.
// It is also zero-cost when disabled: every instrumentation site holds a
// *Tracer that is nil when tracing is off and guards its emit (and the
// construction of the event's arguments) behind a single nil check.
//
// Enabled, an event costs no allocation: each sink encodes it by appending
// into one buffer the Tracer owns and hands that to its bufio.Writer in one
// Write. That holds only while nothing reachable from an Event outlives
// Emit — a single retained string (a map key, say) makes escape analysis
// treat the whole Event as leaking, and every call site's variadic []Arg
// moves from its stack to the heap.
package trace

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"

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

// Tracer fans events out to the configured sinks. A nil *Tracer is the
// disabled tracer: every method is a safe no-op, and instrumentation sites
// additionally nil-check before building arguments so disabled tracing
// costs one predictable branch.
type Tracer struct {
	eng  *sim.Engine
	line *bufio.Writer
	json *bufio.Writer

	// buf holds the one record being encoded; both sinks reuse it.
	buf []byte

	jsonRecords int
	// named has, per node, one bit per category track (1<<catTID) whose
	// metadata the JSON sink has written, and processNamed for the node's.
	named map[int]uint16
}

const processNamed = 1 << 15

// New creates a tracer reading virtual time from eng. Attach at least one
// sink with SetLine or SetJSON, and call Flush when the run ends.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng}
}

// SetLine directs the deterministic line format to w.
func (t *Tracer) SetLine(w io.Writer) { t.line = bufio.NewWriter(w) }

// SetJSON directs Chrome trace-event JSON to w. The JSON array is
// terminated by Flush.
func (t *Tracer) SetJSON(w io.Writer) {
	t.json = bufio.NewWriter(w)
	t.named = make(map[int]uint16)
}

// Instant emits a zero-duration event at the current virtual time.
func (t *Tracer) Instant(node int, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(&Event{Time: t.eng.Now(), Node: node, Cat: cat, Name: name, Args: args}, -1)
}

// InstantMsg is Instant with a free-form string detail.
func (t *Tracer) InstantMsg(node int, cat, name, msg string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(&Event{Time: t.eng.Now(), Node: node, Cat: cat, Name: name, Str: msg, Args: args}, -1)
}

// InstantMsgID is InstantMsg for details of the form "msg N" (a blocking
// reason and its block number or lock id): the encoders join the two, so
// the caller never builds the string. A negative id renders msg alone.
func (t *Tracer) InstantMsgID(node int, cat, name, msg string, id int) {
	if t == nil {
		return
	}
	t.emit(&Event{Time: t.eng.Now(), Node: node, Cat: cat, Name: name, Str: msg}, id)
}

// Span emits a duration event covering [start, now]. Call it when the
// operation completes; the line format stamps the start time and carries
// the duration as dur=<ns>.
func (t *Tracer) Span(node int, cat, name string, start sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	now := t.eng.Now()
	t.emit(&Event{Time: start, Dur: now - start, Node: node, Cat: cat, Name: name, Span: true, Args: args}, -1)
}

// Emit writes one event to every attached sink.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.emit(&e, -1)
}

// emit encodes e for each sink; id >= 0 is joined to e.Str (InstantMsgID).
func (t *Tracer) emit(e *Event, id int) {
	if t.line != nil {
		t.buf = appendLine(t.buf[:0], e, id)
		t.line.Write(t.buf)
	}
	if t.json != nil {
		t.writeJSON(e, id)
	}
}

// Flush terminates the JSON array and flushes both sinks. Call exactly
// once, after the run; the tracer must not be used afterwards.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	var firstErr error
	if t.json != nil {
		if t.jsonRecords == 0 {
			t.json.WriteString("[]")
		} else {
			t.json.WriteString("\n]\n")
		}
		if err := t.json.Flush(); err != nil {
			firstErr = err
		}
	}
	if t.line != nil {
		if err := t.line.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
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

// appendQuote appends strconv.Quote(s). Printable ASCII without a quote
// or a backslash — every string the simulator emits — quotes to itself and
// skips strconv.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
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

// catTID maps a category to a stable thread id inside a node's process, so
// each subsystem gets its own named track and spans from different
// subsystems never nest incorrectly.
func catTID(cat string) int {
	switch cat {
	case CatSim:
		return 0
	case CatMem:
		return 1
	case CatSynch:
		return 2
	case CatProto:
		return 3
	case CatNet:
		return 4
	case CatCrit:
		return 5
	default:
		return 9
	}
}

// record writes t.buf, one raw JSON object, into the top-level array.
func (t *Tracer) record() {
	if t.jsonRecords == 0 {
		t.json.WriteString("[\n")
	} else {
		t.json.WriteString(",\n")
	}
	t.json.Write(t.buf)
	t.jsonRecords++
}

// metadata starts a Chrome metadata record for pid in t.buf.
func (t *Tracer) metadata(name string, pid int) []byte {
	b := append(append(t.buf[:0], `{"ph":"M","name":"`...), name...)
	return strconv.AppendInt(append(b, `","pid":`...), int64(pid), 10)
}

// ensureTrack emits process/thread metadata the first time a (node,
// category) track appears, so Perfetto shows "node3" processes with
// "proto", "net", ... tracks instead of bare numbers. Categories outside
// the Cat* set share tid 9, named after the first of them a node emits.
func (t *Tracer) ensureTrack(node int, cat string) {
	seen, tid := t.named[node], catTID(cat)
	if seen&(1<<tid) != 0 {
		return
	}
	t.named[node] = seen | 1<<tid | processNamed
	pid := node // one Chrome process per node
	if seen&processNamed == 0 {
		b := append(t.metadata("process_name", pid), `,"args":{"name":"`...)
		t.buf = append(appendNodeName(b, node), `"}}`...)
		t.record()
		b = append(t.metadata("process_sort_index", pid), `,"args":{"sort_index":`...)
		t.buf = append(strconv.AppendInt(b, int64(pid), 10), `}}`...)
		t.record()
	}
	b := append(t.metadata("thread_name", pid), `,"tid":`...)
	b = append(strconv.AppendInt(b, int64(tid), 10), `,"args":{"name":`...)
	t.buf = append(appendQuote(b, cat), `}}`...)
	t.record()
}

// writeJSON renders one event as a Chrome trace-event object. Timestamps
// are microseconds (the format's unit); virtual nanoseconds keep three
// decimal places so nothing is lost.
func (t *Tracer) writeJSON(e *Event, id int) {
	t.ensureTrack(e.Node, e.Cat)
	b := append(t.buf[:0], `{"name":`...)
	b = appendQuote(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendQuote(b, e.Cat)
	if e.Span {
		b = append(b, `,"ph":"X","dur":`...)
		b = appendMicros(b, e.Dur)
	} else {
		b = append(b, `,"ph":"i","s":"t"`...)
	}
	b = append(b, `,"ts":`...)
	b = appendMicros(b, e.Time)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(catTID(e.Cat)), 10)
	if len(e.Args) > 0 || e.Str != "" {
		b = append(b, `,"args":{`...)
		for _, a := range e.Args {
			b = append(appendQuote(b, a.Key), ':')
			b = append(strconv.AppendInt(b, a.Val, 10), ',')
		}
		if e.Str != "" {
			b = appendMsg(append(b, `"msg":`...), e.Str, id)
		} else {
			b = b[:len(b)-1] // the last arg's comma
		}
		b = append(b, '}')
	}
	t.buf = append(b, '}')
	t.record()
}

// appendMicros renders a virtual-nanosecond time as decimal microseconds
// with exactly three fractional digits (deterministic, no float rounding).
func appendMicros(b []byte, d sim.Time) []byte {
	n := int64(d)
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	b = strconv.AppendInt(b, n/1000, 10)
	frac := n % 1000
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}
