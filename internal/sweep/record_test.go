package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// TestRecordRoundTrip: every registered protocol with the sampler, both
// profilers and a two-variant fault grid on, so every part of a Result is
// populated somewhere. Each record line decodes to the point and to a
// Result deeply equal to the one the sweep returned; a field encoding/json
// cannot carry (unexported, a NaN, a type it cannot decode) fails here.
func TestRecordRoundTrip(t *testing.T) {
	var rb bytes.Buffer
	grid := []FaultVariant{{Name: "none"},
		{Name: "lossy", Plan: faults.NewPlan(faults.Drop(0.02), faults.Duplicate(0.01), faults.Seed(3))}}
	e := mustNew(t, Options{Size: apps.Small, Workers: 4, Record: &rb, FaultGrid: grid,
		Config: core.Config{SampleEvery: 200 * sim.Microsecond, ShareProfile: true, CritPath: true}})
	keys := Spec{Apps: []string{"lu"}, Protocols: proto.Names(), Granularities: []int{1024},
		Notifies: []network.Notify{network.Polling}, Nodes: 4, Baselines: true,
		Faults: []string{"none", "lossy"}}.Points()
	results, err := e.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
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
			_, err := mustNew(t, o).Run(context.Background(), testSpec().Points())
			if !errors.Is(err, errFull) {
				t.Errorf("%s at %d workers: sweep returned %v, want the writer's error", output, workers, err)
			}
		}
	}
}
