package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// project returns table's projection of the records r holds.
func project(t testing.TB, table string, r io.Reader) string {
	t.Helper()
	recs, err := ReadRecords(r)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Project(&b, table, recs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRecordRoundTrip: every registered protocol with the sampler, both
// profilers and a two-variant fault grid on, so every part of a Result is
// populated somewhere. Each record line decodes to the point and to a
// Result deeply equal to the one the sweep returned; a field encoding/json
// cannot carry (unexported, a NaN, a type it cannot decode) fails here.
func TestRecordRoundTrip(t *testing.T) {
	var rb, cb bytes.Buffer
	grid := []FaultVariant{{Name: "none"},
		{Name: "lossy", Plan: faults.NewPlan(faults.Drop(0.02), faults.Duplicate(0.01), faults.Seed(3))}}
	keys := Spec{Apps: []string{"lu"}, Protocols: proto.Names(), Granularities: []int{1024},
		Notifies: []network.Notify{network.Polling}, Nodes: 4, Baselines: true,
		Faults: []string{"none", "lossy"}}.Points()
	results, _ := mustRun(t, Options{Size: apps.Small, Workers: 4, Record: &rb, CSV: &cb, FaultGrid: grid,
		Config: core.Config{SampleEvery: 200 * sim.Microsecond, ShareProfile: true, CritPath: true}}, keys)
	// The run table projected from the records is the one the sweep wrote,
	// fault column included.
	if got := project(t, "run", bytes.NewReader(rb.Bytes())); got != cb.String() {
		t.Fatalf("projected run table differs from the sweep's CSV:\n%s\nvs\n%s", got, cb.String())
	}
	sc := bufio.NewScanner(&rb)
	sc.Buffer(nil, 1<<24)
	i := 0
	var retx bool
	for ; sc.Scan(); i++ {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if i >= len(keys) {
			t.Fatalf("more record lines than the %d points", len(keys))
		}
		if r.V != RecordVersion || r.Point != keys[i] {
			t.Fatalf("line %d: v=%d point %v, want v=%d point %v", i+1, r.V, r.Point, RecordVersion, keys[i])
		}
		res := results[i]
		if !keys[i].Sequential && (res.Samples == nil || res.Sharing == nil || res.CritPath == nil) {
			t.Fatalf("%v: an observer's report is missing", keys[i])
		}
		if !reflect.DeepEqual(r.Result, res) {
			t.Fatalf("%v: the decoded result differs from the sweep's", keys[i])
		}
		retx = retx || res.Retransmits > 0
	}
	if i != len(keys) {
		t.Fatalf("%d record lines, want %d", i, len(keys))
	}
	if !retx {
		t.Fatal("the lossy variant retransmitted nothing: the reliability fields went untested")
	}
}

// recordLine is the record of one Small lu point on two nodes with every
// observer on (the sampler at a coarse interval, to keep the line short):
// a real line for the tests below to break.
func recordLine(t testing.TB) []byte {
	var rb bytes.Buffer
	mustRun(t, Options{Size: apps.Small, Workers: 1, Record: &rb,
		Config: core.Config{SampleEvery: 10 * sim.Millisecond, ShareProfile: true, CritPath: true}},
		[]Key{{App: "lu", Protocol: core.HLRC, Block: 1024, Nodes: 2}})
	return rb.Bytes()
}

// TestReadRecordsErrors: a line that does not decode, carries another
// version or has no result fails the read, naming the line.
func TestReadRecordsErrors(t *testing.T) {
	line := recordLine(t)
	for _, c := range []struct {
		name, file, want string
	}{
		{"truncated", string(line) + string(line[:40]), "record line 2: unexpected end of JSON input"},
		{"blank", string(line) + "\n" + string(line), "record line 2: unexpected end of JSON input"},
		{"version", string(bytes.Replace(line, []byte(`{"v":1,`), []byte(`{"v":2,`), 1)), "record line 1: version 2, want 1"},
		{"no result", `{"v":1,"point":{"App":"lu"},"result":null}`, "record line 1: no result"},
	} {
		recs, err := ReadRecords(strings.NewReader(c.file))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: %d records, err = %v, want %q", c.name, len(recs), err, c.want)
		}
	}
	recs, err := ReadRecords(bytes.NewReader(append(line, line...)))
	if err != nil || len(recs) != 2 {
		t.Fatalf("two appended lines: %d records, err = %v", len(recs), err)
	}
}

// TestRecordDeclaration: every record of a sweep — the baseline's too —
// carries the sweep's size, what-if scale, fault plan and protocol set in
// their own grammars, the lines decode to the records Run returned, and a
// default Small sweep's lines carry none of them.
func TestRecordDeclaration(t *testing.T) {
	plan, err := faults.Parse("drop=0.01,jitter=5us,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	scale, err := critpath.ParseScale("msg=0.5")
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{Seq("lu"), {App: "lu", Protocol: core.SC, Block: 1024, Nodes: 2}}
	want := Declaration{WhatIf: "msg=0.5", Faults: "drop=0.01,jitter=5us,seed=3", Protocols: []string{core.SC, core.TLC}}
	for _, o := range []Options{
		{Size: apps.Small, Protocols: []string{core.SC, core.TLC}, Config: core.Config{Faults: plan, WhatIf: scale}},
		{Size: apps.Small},
	} {
		var rb bytes.Buffer
		o.Record = &rb
		recs, _, err := Run(context.Background(), o, keys)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadRecords(bytes.NewReader(rb.Bytes()))
		if err != nil || !reflect.DeepEqual(read, recs) {
			t.Fatalf("the record lines (%v) are not the records Run returned", err)
		}
		for _, r := range recs {
			if !reflect.DeepEqual(r.Declaration, want) {
				t.Errorf("%s is declared %+v, want %+v", r.Point, r.Declaration, want)
			}
		}
		if o.Protocols == nil && !bytes.HasPrefix(rb.Bytes(), []byte(`{"v":1,"point":`)) {
			t.Errorf("a default sweep's record line starts %.40q", rb.Bytes())
		}
		want = Declaration{}
	}
}

// TestProjectHasRows: a table without a row is ErrNoRows, not an empty
// file — an observer's table whose observer was off, or records of
// baselines alone — and an unknown table is an error naming it.
func TestProjectHasRows(t *testing.T) {
	recs, err := ReadRecords(bytes.NewReader(recordLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(Tables) != len(tables) {
		t.Errorf("Tables names %d of the %d tables", len(Tables), len(tables))
	}
	for _, table := range Tables {
		if err := Project(io.Discard, table, recs); err != nil {
			t.Errorf("%s: %v", table, err)
		}
	}
	off := recs[0]
	res := *off.Result
	res.Sharing, res.CritPath, res.Samples = nil, nil, nil
	off.Result = &res
	seq := Record{V: RecordVersion, Point: Seq("lu"), Result: recs[0].Result}
	for _, c := range []struct {
		table string
		recs  []Record
	}{{"prof", []Record{off}}, {"crit", []Record{off}}, {"sample", []Record{off}}, {"run", []Record{seq}}} {
		var b bytes.Buffer
		if err := Project(&b, c.table, c.recs); !errors.Is(err, ErrNoRows) || b.Len() != 0 {
			t.Errorf("%s: err = %v with %d bytes written, want ErrNoRows and none", c.table, err, b.Len())
		}
	}
	if err := Project(io.Discard, "csv", recs); err == nil || !strings.Contains(err.Error(), `"csv"`) {
		t.Errorf("unknown table: err = %v", err)
	}
}

// FuzzReadRecords: no input panics the reader or a projection of what it
// accepts, and every input it refuses is refused naming a line.
func FuzzReadRecords(f *testing.F) {
	f.Add(recordLine(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "record line ") {
				t.Fatalf("error names no line: %v", err)
			}
			return
		}
		for _, table := range []string{"run", "prof", "crit", "sample"} {
			Project(io.Discard, table, recs)
		}
	})
}

// failingWriter fails its nth write and every write after it.
type failingWriter struct{ n, writes int }

var errFull = errors.New("no space left on device")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes >= w.n {
		return 0, errFull
	}
	return len(p), nil
}

// TestSinkWriteErrorFailsSweep: an output that loses a write fails the
// sweep writing it — CSV or record, serial or parallel — instead of
// leaving a silently truncated file behind a successful sweep.
func TestSinkWriteErrorFailsSweep(t *testing.T) {
	for _, output := range []string{"csv", "record"} {
		for _, workers := range []int{1, 8} {
			w := &failingWriter{n: 4}
			o := Options{Size: apps.Small, Workers: workers}
			if output == "csv" {
				o.CSV = w
			} else {
				o.Record = w
			}
			_, _, err := Run(context.Background(), o, testSpec().Points())
			if !errors.Is(err, errFull) {
				t.Errorf("%s at %d workers: sweep returned %v, want the writer's error", output, workers, err)
			}
		}
	}
}
