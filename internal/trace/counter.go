package trace

import (
	"bufio"
	"io"
	"strconv"

	"dsmsim/internal/sim"
)

// CounterVal is one named value inside a counter event; Chrome renders the
// values of one counter name as a stacked track.
type CounterVal struct {
	Key string
	Val float64
}

// CounterWriter emits a standalone Chrome trace-event file of counter
// tracks ("ph":"C") — the format Perfetto draws as stacked area charts.
// The metrics sampler uses it to export its virtual-time series (fault
// rates, stall fractions, diff bandwidth, lock queue depth) with the same
// timestamp conventions as Tracer's JSON sink, so a counter file and a
// trace file of the same run line up when viewed together.
//
// Values are rendered with exactly three fractional digits, so identical
// series produce byte-identical files.
type CounterWriter struct {
	w       *bufio.Writer
	records int
}

// NewCounterWriter starts a counter file on w. Call Flush when done.
func NewCounterWriter(w io.Writer) *CounterWriter {
	return &CounterWriter{w: bufio.NewWriter(w)}
}

// counterPID keeps counter tracks in their own Perfetto process, above
// every node's pid.
const counterPID = 1<<20 + 1

func (c *CounterWriter) record(b []byte) {
	if c.records == 0 {
		c.w.WriteString("[\n")
		c.w.WriteString(`{"ph":"M","name":"process_name","pid":` +
			strconv.Itoa(counterPID) + `,"args":{"name":"metrics"}}`)
		c.records++
		// fall through to write b as the second record
	}
	c.w.WriteString(",\n")
	c.w.Write(b)
	c.records++
}

// Counter emits one counter event: the values of vals at virtual time at,
// under the track named name.
func (c *CounterWriter) Counter(name string, at sim.Time, vals ...CounterVal) {
	var b []byte
	b = append(b, `{"ph":"C","name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, at)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, counterPID, 10)
	b = append(b, `,"args":{`...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, v.Key)
		b = append(b, ':')
		b = strconv.AppendFloat(b, v.Val, 'f', 3, 64)
	}
	b = append(b, `}}`...)
	c.record(b)
}

// Flush terminates the JSON array and flushes the writer. Call exactly
// once, after the last Counter.
func (c *CounterWriter) Flush() error {
	if c.records == 0 {
		c.w.WriteString("[]")
	} else {
		c.w.WriteString("\n]\n")
	}
	return c.w.Flush()
}
