package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dsmsim/internal/sim"
)

// Chrome reads a line-format trace from r and writes it to w as a Chrome
// trace-event JSON array. A line that is not one event — a line cut short,
// a field that is not an integer where one belongs, more than 64 KiB — stops
// the projection with an error naming its 1-based line number, the records
// before it already written. The lines the simulator writes read back
// exactly; a category, name or argument key that is
// empty or holds a space or '=' cannot be told from its neighbours, and an
// instant's first argument must not be keyed "dur".
func Chrome(w io.Writer, r io.Reader) error {
	c := chrome{w: bufio.NewWriter(w), named: make(map[int]uint16)}
	br := bufio.NewReaderSize(r, 64<<10)
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		var e Event
		switch err {
		case nil:
			e, err = parseLine(string(line[:len(line)-1]))
		case io.EOF:
			err = errors.New("truncated: no newline")
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		c.event(&e)
	}
	return c.close()
}

// parseLine reads one event back from its line-format encoding (appendLine
// without the newline). An "InstantMsgID" detail comes back as the one
// string it was joined into.
func parseLine(s string) (e Event, err error) {
	head, q, hasMsg := strings.Cut(s, ` msg="`)
	if hasMsg {
		if e.Str, err = strconv.Unquote(`"` + q); err != nil {
			return e, fmt.Errorf("msg: %w", err)
		}
	}
	f := strings.FieldsFunc(head, func(r rune) bool { return r == ' ' })
	if len(f) < 4 {
		return e, errors.New("truncated: fewer than four fields")
	}
	t, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return e, fmt.Errorf("time: %w", err)
	}
	node, ok := strings.CutPrefix(f[2], "node")
	if e.Node, err = strconv.Atoi(node); !ok || err != nil {
		return e, fmt.Errorf("%q is not node<N>", f[2])
	}
	e.Time, e.Cat, e.Name = sim.Time(t), f[1], f[3]
	for i, arg := range f[4:] {
		k, v, ok := strings.Cut(arg, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil {
			return e, fmt.Errorf("argument %q is not key=integer", arg)
		}
		if i == 0 && k == "dur" {
			e.Span, e.Dur = true, sim.Time(n)
		} else {
			e.Args = append(e.Args, Arg{Key: k, Val: n})
		}
	}
	return e, nil
}

// chrome renders events as the elements of a Chrome trace-event JSON array.
type chrome struct {
	w *bufio.Writer
	// buf holds the one record being encoded.
	buf     []byte
	records int
	// named has, per node, one bit per category track (1<<catTID) whose
	// metadata has been written, and processNamed for the node's.
	named map[int]uint16
}

const processNamed = 1 << 15

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

// appendJSONQuote appends s as a JSON string: as appendQuote for a plain s,
// through encoding/json otherwise, since Go's quoting has escapes (\x, \a,
// \U) JSON lacks.
func appendJSONQuote(b []byte, s string) []byte {
	if plain(s) {
		return appendQuote(b, s)
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// close terminates the array and flushes it.
func (c *chrome) close() error {
	if c.records == 0 {
		c.w.WriteString("[]")
	} else {
		c.w.WriteString("\n]\n")
	}
	return c.w.Flush()
}

// record writes c.buf, one raw JSON object, into the top-level array.
func (c *chrome) record() {
	if c.records == 0 {
		c.w.WriteString("[\n")
	} else {
		c.w.WriteString(",\n")
	}
	c.w.Write(c.buf)
	c.records++
}

// metadata starts a Chrome metadata record for pid in c.buf.
func (c *chrome) metadata(name string, pid int) []byte {
	b := append(append(c.buf[:0], `{"ph":"M","name":"`...), name...)
	return strconv.AppendInt(append(b, `","pid":`...), int64(pid), 10)
}

// ensureTrack emits process/thread metadata the first time a (node,
// category) track appears, so Perfetto shows "node3" processes with
// "proto", "net", ... tracks instead of bare numbers. Categories outside
// the Cat* set share tid 9, named after the first of them a node emits.
func (c *chrome) ensureTrack(node int, cat string) {
	seen, tid := c.named[node], catTID(cat)
	if seen&(1<<tid) != 0 {
		return
	}
	c.named[node] = seen | 1<<tid | processNamed
	pid := node // one Chrome process per node
	if seen&processNamed == 0 {
		b := append(c.metadata("process_name", pid), `,"args":{"name":"`...)
		c.buf = append(appendNodeName(b, node), `"}}`...)
		c.record()
		b = append(c.metadata("process_sort_index", pid), `,"args":{"sort_index":`...)
		c.buf = append(strconv.AppendInt(b, int64(pid), 10), `}}`...)
		c.record()
	}
	b := append(c.metadata("thread_name", pid), `,"tid":`...)
	b = append(strconv.AppendInt(b, int64(tid), 10), `,"args":{"name":`...)
	c.buf = append(appendJSONQuote(b, cat), `}}`...)
	c.record()
}

// event renders one event as a Chrome trace-event object. Timestamps are
// microseconds (the format's unit); virtual nanoseconds keep three decimal
// places so nothing is lost.
func (c *chrome) event(e *Event) {
	c.ensureTrack(e.Node, e.Cat)
	b := append(c.buf[:0], `{"name":`...)
	b = appendJSONQuote(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendJSONQuote(b, e.Cat)
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
			b = append(appendJSONQuote(b, a.Key), ':')
			b = append(strconv.AppendInt(b, a.Val, 10), ',')
		}
		if e.Str != "" {
			b = appendJSONQuote(append(b, `"msg":`...), e.Str)
		} else {
			b = b[:len(b)-1] // the last arg's comma
		}
		b = append(b, '}')
	}
	c.buf = append(b, '}')
	c.record()
}

// appendMicros renders a virtual-nanosecond time as decimal microseconds
// with exactly three fractional digits (deterministic, no float rounding).
func appendMicros(b []byte, d sim.Time) []byte {
	u := uint64(d)
	if d < 0 {
		b = append(b, '-')
		u = -u // exact for math.MinInt64 too
	}
	b = strconv.AppendUint(b, u/1000, 10)
	frac := u % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
