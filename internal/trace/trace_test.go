package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"dsmsim/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Instant(0, CatNet, "send", A("x", 1))
	tr.Span(0, CatMem, "fault", 0)
	tr.InstantMsg(0, CatSim, "block", "why")
	tr.Emit(Event{})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestLineFormatDeterministic(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		var sb strings.Builder
		tr := New(eng)
		tr.SetLine(&sb)
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
		if err := tr.Flush(); err != nil {
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

func TestJSONIsValidChromeTrace(t *testing.T) {
	eng := sim.NewEngine()
	var sb strings.Builder
	tr := New(eng)
	tr.SetJSON(&sb)
	eng.Schedule(1234, func() {
		tr.Instant(0, CatProto, "fetch", A("block", 3))
		tr.Span(0, CatSynch, "lock", 234, A("id", 1))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
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
	tr := New(sim.NewEngine())
	var sb strings.Builder
	tr.SetJSON(&sb)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("empty trace is invalid JSON: %v (%q)", err, sb.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty trace has %d events", len(events))
	}
}

func TestAppendMicros(t *testing.T) {
	for _, tc := range []struct {
		ns   sim.Time
		want string
	}{{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"}, {1234567, "1234.567"}} {
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
