package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dsmsim/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Instant(0, CatNet, "send", A("x", 1))
	tr.Span(0, CatMem, "fault", 0)
	tr.InstantMsg(0, CatSim, "block", "why")
	tr.SpanAt(0, CatCrit, "compute", 0, 1)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLineFormatDeterministic(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		var sb strings.Builder
		tr := New(eng, &sb)
		eng.Schedule(1500, func() {
			tr.Instant(2, CatNet, "send", A("dst", 1), A("bytes", 64))
		})
		eng.Schedule(2500, func() {
			tr.Span(1, CatMem, "fault", 1500, A("block", 7))
			tr.InstantMsg(3, CatSim, "note", "hello \"world\"")
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("identical runs produced different line traces")
	}
	for _, want := range []string{
		"1500 net   node2   send dst=1 bytes=64",
		"1500 mem   node1   fault dur=1000 block=7",
		`2500 sim   node3   note msg="hello \"world\""`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("line trace missing %q:\n%s", want, a)
		}
	}
}

// chromeOf projects a line trace, failing the test on a malformed line.
func chromeOf(t *testing.T, line string) string {
	t.Helper()
	var sb strings.Builder
	if err := Chrome(&sb, strings.NewReader(line)); err != nil {
		t.Fatalf("Chrome: %v\n%s", err, line)
	}
	return sb.String()
}

func TestJSONIsValidChromeTrace(t *testing.T) {
	eng := sim.NewEngine()
	var line strings.Builder
	tr := New(eng, &line)
	eng.Schedule(1234, func() {
		tr.Instant(0, CatProto, "fetch", A("block", 3))
		tr.Span(0, CatSynch, "lock", 234, A("id", 1))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	js := chromeOf(t, line.String())

	var events []map[string]any
	if err := json.Unmarshal([]byte(js), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, js)
	}
	var phases []string
	var names []string
	for _, e := range events {
		phases = append(phases, e["ph"].(string))
		names = append(names, e["name"].(string))
	}
	joinedNames := strings.Join(names, " ")
	// Metadata names the node process and both category tracks.
	for _, want := range []string{"process_name", "thread_name", "fetch", "lock"} {
		if !strings.Contains(joinedNames, want) {
			t.Errorf("JSON trace missing %q event (have %v)", want, names)
		}
	}
	if !strings.Contains(strings.Join(phases, ""), "i") || !strings.Contains(strings.Join(phases, ""), "X") {
		t.Errorf("want both instant and span phases, got %v", phases)
	}
	// The span: ts = 0.234µs, dur = 1.000µs.
	for _, e := range events {
		if e["name"] == "lock" {
			if ts := e["ts"].(float64); ts != 0.234 {
				t.Errorf("lock span ts = %v, want 0.234", ts)
			}
			if dur := e["dur"].(float64); dur != 1.0 {
				t.Errorf("lock span dur = %v, want 1.0", dur)
			}
			if args := e["args"].(map[string]any); args["id"].(float64) != 1 {
				t.Errorf("lock span args = %v", args)
			}
		}
	}
}

func TestJSONEmptyTrace(t *testing.T) {
	js := chromeOf(t, "")
	var events []any
	if err := json.Unmarshal([]byte(js), &events); err != nil {
		t.Fatalf("empty trace is invalid JSON: %v (%q)", err, js)
	}
	if len(events) != 0 {
		t.Fatalf("empty trace has %d events", len(events))
	}
}

// TestChromeRejectsMalformedLines: a line that is not one event fails the
// projection with its 1-based number, whatever came before it, and nothing
// is written.
func TestChromeRejectsMalformedLines(t *testing.T) {
	const good = "        1500 net   node2   send dst=1 bytes=64\n"
	for _, tc := range []struct {
		name, in string
		line     int
		want     string
	}{
		{"no newline", good + "        1600 net   node2   send dst=1 byt", 2, "truncated: no newline"},
		{"cut after node", good + good + "        1600 net   node2\n", 3, "truncated"},
		{"empty line", good + "\n" + good, 2, "truncated"},
		{"time", "       15x00 net   node2   send dst=1\n", 1, "time"},
		{"arg value", good + "        1600 net   node2   send dst=one\n", 2, `"dst=one" is not key=integer`},
		{"arg without value", "        1600 net   node2   send dst\n", 1, "not key=integer"},
		{"dur", "        1600 mem   node1   fault dur=1.5 block=7\n", 1, `"dur=1.5"`},
		{"missing node", good + "        1600 net   send dst=1\n", 2, `"send" is not node<N>`},
		{"node id", "        1600 net   nodeX   send dst=1\n", 1, "not node<N>"},
		{"msg", "           0 sim   node1   block msg=\"barrier\n", 1, "msg"},
	} {
		var sb strings.Builder
		err := Chrome(&sb, strings.NewReader(tc.in))
		if want := fmt.Sprintf("line %d: ", tc.line); err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q naming %q", tc.name, err, want, tc.want)
		}
		if sb.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", tc.name, sb.Len())
		}
	}
}

// traceExcerpt is a few lines of a real line trace (lu under hlrc, 4
// nodes, both profilers and a drop plan): every shape of event.
const traceExcerpt = `           0 crit  node0   overhead dur=5000
           0 mem   node0   fault dur=59960 block=0 write=1
           0 net   node1   send dst=0 kind=4 block=-1 bytes=24
           0 net   node2   drop dst=0 seq=0
           0 sim   node1   block msg="barrier"
        5000 proto node0   fetch block=0 write=1 target=0
        8000 net   node0   serve dur=4000 src=0 kind=100 block=0 wait=0
       59960 mem   node0   tag block=0 msg="none->rw"
      109800 net   node2   retx dst=0 seq=0 attempt=1
           0 synch node1   interval idx=1 notices=0
`

// FuzzChrome: whatever the bytes, the projection ends in an error with
// nothing written or in valid JSON, never in a panic.
func FuzzChrome(f *testing.F) {
	f.Add([]byte(traceExcerpt))
	f.Add([]byte(traceExcerpt[:100]))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sb strings.Builder
		err := Chrome(&sb, bytes.NewReader(data))
		if err == nil && !json.Valid([]byte(sb.String())) {
			t.Fatalf("Chrome(%q) wrote invalid JSON:\n%s", data, sb.String())
		}
		if err != nil && sb.Len() != 0 {
			t.Fatalf("Chrome(%q) failed (%v) after writing %d bytes", data, err, sb.Len())
		}
	})
}

func TestAppendMicros(t *testing.T) {
	for _, tc := range []struct {
		ns   sim.Time
		want string
	}{{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"}, {1234567, "1234.567"},
		{-1, "-0.001"}, {math.MinInt64, "-9223372036854775.808"}} {
		if got := string(appendMicros(nil, tc.ns)); got != tc.want {
			t.Errorf("appendMicros(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestBoolArg(t *testing.T) {
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Fatal("Bool mapping wrong")
	}
}
