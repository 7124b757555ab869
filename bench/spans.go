package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names, one per call the benchmark makes into a layer. Spans inside
// the program are a later issue; these are recorded from outside.
const (
	spanIteration  = "bench.iteration"
	spanRun        = "bench.run"
	spanAppsNew    = "apps.new"
	spanNewMachine = "core.new_machine"
	spanCoreRun    = "core.run"
	spanAppsSetup  = "apps.setup"
	spanAppsVerify = "apps.verify"
	spanAppsKernel = "apps.kernel"
	spanSweep      = "sweep.run"
)

// span is one timed call: its name, when it started and ended (ns since
// the recorder was made), the span that caused it (-1 for a root) and
// the id of the run it belongs to (-1 when it belongs to none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// recorder keeps spans in memory until the benchmark ends. It is used
// from the benchmark's own goroutine only, and a nil recorder records
// nothing, so the untraced pass runs the same code with tracing off.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for its children.
func (r *recorder) begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Run: run})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// selfTimes returns, for the tree under root, each span name's self time
// in ns: a span's duration minus the part its direct children cover.
// Children of one span never overlap here (the benchmark is a closed loop
// with one client), so the covered part is the sum of their durations.
func (r *recorder) selfTimes(root int) map[string]int64 {
	covered := make([]int64, len(r.spans))
	inTree := make([]bool, len(r.spans))
	inTree[root] = true
	// Parents are always recorded before their children.
	for i := root + 1; i < len(r.spans); i++ {
		p := r.spans[i].Parent
		if p >= 0 && inTree[p] {
			inTree[i] = true
			covered[p] += r.spans[i].End - r.spans[i].Start
		}
	}
	self := map[string]int64{}
	for i, s := range r.spans {
		if inTree[i] {
			self[s.Name] += s.End - s.Start - covered[i]
		}
	}
	return self
}

// duration returns a span's own length in ns.
func (r *recorder) duration(id int) int64 { return r.spans[id].End - r.spans[id].Start }

// writeFile writes every span as one JSON array.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
