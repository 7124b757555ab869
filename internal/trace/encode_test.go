package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/sim"
)

// fmtLine is the line format's definition: the fmt-based writer the append
// encoder replaced, kept as the oracle. id >= 0 is joined to the detail the
// way sim.Proc.Reason joins a blocking reason and its id.
func fmtLine(e Event, id int) string {
	node := "node" + strconv.Itoa(e.Node)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%12d %-5s %-7s %s", int64(e.Time), e.Cat, node, e.Name)
	if e.Span {
		fmt.Fprintf(&b, " dur=%d", int64(e.Dur))
	}
	for _, a := range e.Args {
		fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
	}
	if e.Str != "" {
		msg := e.Str
		if id >= 0 {
			msg += " " + strconv.Itoa(id)
		}
		fmt.Fprintf(&b, " msg=%s", strconv.Quote(msg))
	}
	b.WriteByte('\n')
	return b.String()
}

// encodeCase is one event plus the id of the InstantMsgID form (-1: none).
type encodeCase struct {
	e  Event
	id int
}

// encodeCases are the corners of the line format: the widths fmt pads to
// and every class of byte strconv.Quote treats differently.
var encodeCases = []encodeCase{
	{Event{}, -1},
	{Event{Time: 1500, Node: 2, Cat: CatNet, Name: "send", Args: []Arg{{"dst", 1}, {"bytes", 64}}}, -1},
	{Event{Time: 1500, Dur: 1000, Node: 1, Cat: CatMem, Name: "fault", Span: true, Args: []Arg{{"block", 7}}}, -1},
	{Event{Time: -1, Dur: -5, Node: -1, Cat: CatSim, Name: "dispatch", Span: true}, -1},
	{Event{Time: 999999999999, Node: 999, Cat: CatProto, Name: "w12"}, -1},
	{Event{Time: 1000000000000, Node: 1000, Cat: CatSynch, Name: "w13"}, -1},
	{Event{Time: math.MaxInt64, Node: math.MaxInt64, Cat: "category", Name: "wide"}, -1},
	{Event{Time: math.MinInt64, Node: -2, Cat: "", Name: ""}, -1},
	{Event{Time: -99999999999, Node: 12345678, Cat: "sché", Name: "runes", Args: []Arg{{"k", math.MinInt64}, {"", math.MaxInt64}}}, -1},
	{Event{Node: 3, Cat: "\xff\xfe", Name: "bad utf8 cat"}, -1},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "read fault"}, 0},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "read fault"}, 7},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "lock"}, 100},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "barrier"}, -1},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "barrier"}, -7},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: "half a rune \xe4\xb8"}, 12},
	{Event{Node: 0, Cat: CatSim, Name: "block", Str: ""}, 3},
	{Event{Cat: CatMem, Name: "tag", Str: "NoAccess->ReadOnly", Args: []Arg{{"block", 3}}}, -1},
	{Event{Cat: CatSim, Name: "note", Str: `hello "world"`}, -1},
	{Event{Cat: CatSim, Name: "note", Str: `back\slash`}, 4},
	{Event{Cat: CatSim, Name: "note", Str: "ctl \x00\a\b\f\n\r\t\v\x1b\x7f"}, -1},
	{Event{Cat: CatSim, Name: "note", Str: "non-ASCII é 世界 \u2028 \U0001f600 \u00ad"}, 9},
	{Event{Cat: CatSim, Name: "note", Str: "invalid \xff\xc0\xaf utf8"}, -1},
	{Event{Cat: CatSim, Name: "note", Str: " ~"}, -1},
}

func checkLine(t *testing.T, c encodeCase) {
	t.Helper()
	want := fmtLine(c.e, c.id)
	// A dirty prefix shows the encoder appends rather than overwrites.
	got := appendLine([]byte("prefix"), &c.e, c.id)
	if string(got) != "prefix"+want {
		t.Errorf("event %+v id %d:\n got %q\nwant %q", c.e, c.id, got[len("prefix"):], want)
	}
}

// randomCase draws an event whose fields land on and around the format's
// widths and quoting classes.
func randomCase(r *rand.Rand) encodeCase {
	pick := func(xs ...int64) int64 { return xs[r.Intn(len(xs))] }
	num := func() int64 {
		switch r.Intn(4) {
		case 0:
			return r.Int63n(1000)
		case 1:
			return -r.Int63n(1 << 40)
		case 2:
			return pick(99999999999, 999999999999, 1000000000000, -99999999999, -100000000000, math.MaxInt64, math.MinInt64)
		default:
			return int64(r.Uint64())
		}
	}
	alphabet := []string{"a", "Z", "0", " ", "~", `"`, `\`, "\n", "\x00", "\x7f", "\x80", "\xff", "é", "世", "\u2028", "\U0001f600", "\xe4\xb8"}
	str := func(maxLen int) string {
		var s string
		for n := r.Intn(maxLen + 1); n > 0; n-- {
			if r.Intn(3) > 0 {
				s += string(rune('a' + r.Intn(26))) // mostly plain, so the fast path is drawn too
			} else {
				s += alphabet[r.Intn(len(alphabet))]
			}
		}
		return s
	}
	c := encodeCase{id: int(pick(-1, -1, -100, 0, 9, 99, 100, 12345))}
	c.e = Event{Time: sim.Time(num()), Dur: sim.Time(num()), Cat: str(8), Name: str(10), Span: r.Intn(2) == 0}
	c.e.Node = int(pick(-1, 0, 7, 99, 999, 1000, 123456, -2, num()))
	if r.Intn(2) == 0 {
		c.e.Str = str(12)
	}
	for n := r.Intn(6); n > 0; n-- {
		c.e.Args = append(c.e.Args, Arg{Key: str(6), Val: num()})
	}
	return c
}

// TestLineEncoderMatchesFmt compares the append encoder with the fmt
// oracle byte for byte, over the corner table and over randomised events,
// and Chrome over each readable event's line with its direct rendering.
func TestLineEncoderMatchesFmt(t *testing.T) {
	for _, c := range encodeCases {
		checkLine(t, c)
		checkChrome(t, c)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000 && !t.Failed(); i++ {
		c := randomCase(r)
		checkLine(t, c)
		checkChrome(t, c)
	}
}

// TestInstantMsgIDJoinsReasonAndID: the line and its Chrome projection
// render (msg, id) as the joined string InstantMsg would have been given,
// and a negative id as msg alone.
func TestInstantMsgIDJoinsReasonAndID(t *testing.T) {
	render := func(emit func(*Tracer)) (line, json string) {
		var lb, jb bytes.Buffer
		tr := New(sim.NewEngine(), &lb)
		emit(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := Chrome(&jb, bytes.NewReader(lb.Bytes())); err != nil {
			t.Fatal(err)
		}
		return lb.String(), jb.String()
	}
	for _, tc := range []struct {
		msg    string
		id     int
		joined string
	}{{"read fault", 7, "read fault 7"}, {"lock", 100, "lock 100"}, {"barrier", -1, "barrier"}, {`odd "reason"\`, 0, `odd "reason"\ 0`}} {
		gotLine, gotJSON := render(func(tr *Tracer) { tr.InstantMsgID(2, CatSim, "block", tc.msg, tc.id) })
		wantLine, wantJSON := render(func(tr *Tracer) { tr.InstantMsg(2, CatSim, "block", tc.joined) })
		if gotLine != wantLine || gotJSON != wantJSON {
			t.Errorf("InstantMsgID(%q, %d):\n got %q %q\nwant %q %q", tc.msg, tc.id, gotLine, gotJSON, wantLine, wantJSON)
		}
	}
}

// readable reports whether the line format keeps e's fields apart, as it
// does for every event the simulator emits: a non-empty category and name
// and argument keys, none with a space, '=' or newline, and no instant
// whose first argument reads as a span's dur=.
func readable(e Event) bool {
	ok := func(s string) bool { return !strings.ContainsAny(s, " =\n") }
	if e.Cat == "" || e.Name == "" || !ok(e.Cat) || !ok(e.Name) || !e.Span && len(e.Args) > 0 && e.Args[0].Key == "dur" {
		return false
	}
	for _, a := range e.Args {
		if !ok(a.Key) {
			return false
		}
	}
	return true
}

// checkChrome: Chrome over a readable event's line is the event rendered
// straight into JSON, the id joined to the detail as the line joins it.
func checkChrome(t *testing.T, c encodeCase) {
	t.Helper()
	if !readable(c.e) {
		return
	}
	e := c.e
	if e.Str != "" && c.id >= 0 {
		e.Str += " " + strconv.Itoa(c.id)
	}
	var direct, projected bytes.Buffer
	w := chrome{w: bufio.NewWriter(&direct), named: make(map[int]uint16)}
	w.event(&e)
	w.close()
	if err := Chrome(&projected, bytes.NewReader(appendLine(nil, &c.e, c.id))); err != nil || projected.String() != direct.String() {
		t.Errorf("event %+v id %d: Chrome err %v\n got %s\nwant %s", c.e, c.id, err, projected.String(), direct.String())
	}
	if !json.Valid(direct.Bytes()) {
		t.Errorf("event %+v: invalid JSON %s", c.e, direct.String())
	}
}

// FuzzLineEncoder is TestLineEncoderMatchesFmt with the fuzzer choosing the
// fields, seeded from the same corner table. It also checks the quoting
// helper alone against strconv.Quote, and that Chrome reads a readable
// event's line back.
func FuzzLineEncoder(f *testing.F) {
	for _, c := range encodeCases {
		var key string
		var val int64
		if len(c.e.Args) > 0 {
			key, val = c.e.Args[0].Key, c.e.Args[0].Val
		}
		f.Add(int64(c.e.Time), int64(c.e.Dur), c.e.Node, c.e.Cat, c.e.Name, c.e.Str, c.e.Span, c.id, key, val, uint8(len(c.e.Args)))
	}
	f.Fuzz(func(t *testing.T, at, dur int64, node int, cat, name, str string, span bool, id int, key string, val int64, nargs uint8) {
		e := Event{Time: sim.Time(at), Dur: sim.Time(dur), Node: node, Cat: cat, Name: name, Str: str, Span: span}
		for i := 0; i < int(nargs%8); i++ {
			e.Args = append(e.Args, Arg{Key: key, Val: val + int64(i)})
		}
		checkLine(t, encodeCase{e, id})
		checkChrome(t, encodeCase{e, id})
		if got, want := string(appendQuote(nil, str)), strconv.Quote(str); got != want {
			t.Errorf("appendQuote(%q) = %s, want %s", str, got, want)
		}
	})
}
