package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/metrics"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/stats"
)

// RecordVersion is the schema version every Record carries. It is bumped
// when a field of the record — of Key or of core.Result — changes meaning;
// a field added or removed leaves it alone.
const RecordVersion = 1

// Record is the one serialization of a finished point: how its sweep was
// declared, the point, and its whole result — per-node statistics,
// histograms, phases, samples, sharing profile, critical path and
// reliability counters included (the final image is not). The sink writes
// it with encoding/json as one line per emitted run, baselines included;
// Run returns what it wrote. Nothing in it depends on the host or the
// build, so a record file is byte-identical at any parallelism. Every other
// output — sink, Project and harness tables — is a projection of records.
type Record struct {
	V int `json:"v"`
	Declaration
	Point  Key          `json:"point"`
	Result *core.Result `json:"result"`
}

// Declaration is what a record names of its sweep that its point cannot,
// the same for every record of a sweep: Options.Size (1 is Paper), the
// template's WhatIf and Faults in their parsers' grammars, and
// Options.Protocols. A zero field is left out of the line, so a default
// Small record does not change.
type Declaration struct {
	Size      apps.SizeClass `json:"size,omitempty"`
	WhatIf    string         `json:"whatif,omitempty"`
	Faults    string         `json:"faults,omitempty"`
	Protocols []string       `json:"protocols,omitempty"`
}

// Sink writes every per-run output — progress lines, CSV tables, record
// lines — under one mutex, so that concurrent runs never interleave partial
// lines and the writers themselves need no locking. Emission order is
// whatever order Emit is called in; the sweep scheduler calls it in
// canonical sweep order regardless of run completion order, which is what
// makes parallel output byte-identical to serial. Every call has written
// its bytes by the time it returns.
type Sink struct {
	mu      sync.Mutex
	outputs []*projection
	err     error // the first write that failed
}

// projection is one output of a sink: the bytes render draws from a
// record, written to w; render returns nil when the record has none of
// this output's data. A projection with a header is a CSV table: the
// header goes before its first row, and neither a Sequential baseline nor
// a point with Settings (outside the paper's evaluation matrix) has rows.
type projection struct {
	w       io.Writer
	header  string
	render  func(r Record) []byte
	started bool
}

// NewSink is a sink with the writers spelled positionally, as the
// benchmark probes call it: a nil writer leaves its output out, and
// faultCol adds the fault column. The seventh argument is ignored
// (it selected the enriched progress format, which is gone).
func NewSink(progress, csv io.Writer, histograms bool, samples, profs, crits io.Writer, _, faultCol bool) *Sink {
	s := &Sink{}
	s.add(&projection{w: progress, render: progressLines(histograms)}, tables["run"](csv, faultCol),
		tables["sample"](samples, faultCol), tables["prof"](profs, faultCol), tables["crit"](crits, faultCol))
	return s
}

// add appends the projections that have a writer to s's outputs.
func (s *Sink) add(ps ...*projection) {
	for _, p := range ps {
		if p.w != nil {
			s.outputs = append(s.outputs, p)
		}
	}
}

// Emit writes one completed run to every output, each rendering its part
// of the run's record. It returns the first write error the sink has met,
// this call's or an earlier one's: an output that lost a write is
// incomplete, so the sweep writing it must fail.
func (s *Sink) Emit(k Key, res *core.Result) error {
	return s.emit(Record{V: RecordVersion, Point: k, Result: res})
}

// emit is Emit of a whole record.
func (s *Sink) emit(r Record) error {
	k := r.Point
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.outputs {
		if (k.Sequential || k.Settings != Settings{}) && p.header != "" {
			continue
		}
		b := p.render(r)
		if b == nil {
			continue
		}
		if !p.started {
			p.started = true
			if p.header != "" {
				s.write(p.w, []byte(p.header+"\n"))
			}
		}
		s.write(p.w, b)
	}
	return s.err
}

// write hands b to w and keeps the first error. The caller holds the lock.
func (s *Sink) write(w io.Writer, b []byte) {
	if _, err := w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
}

// Close does nothing (Emit has written everything when it returns); it
// stays for callers that still close their sinks.
func (s *Sink) Close() {}

// ErrNoRows is Project's error for a table in which no matrix run has a
// row: an observer's table with the observer off, or baselines alone.
var ErrNoRows = errors.New("no matrix run in the records has a row in it")

// Project writes the named CSV table of recs — run, prof, crit or sample —
// to w through the projection a Sink writes it with: one header,
// then every matrix run's rows in record order. Its fault column is there
// iff some point names a fault-grid variant.
func Project(w io.Writer, name string, recs []Record) error {
	table, ok := tables[name]
	if !ok {
		return fmt.Errorf("no table %q (want one of %s)", name, strings.Join(Tables, ", "))
	}
	p := table(w, slices.ContainsFunc(recs, func(r Record) bool { return r.Point.Fault != "" }))
	s := &Sink{outputs: []*projection{p}}
	for _, r := range recs {
		if err := s.emit(r); err != nil {
			return err
		}
	}
	if !p.started {
		return fmt.Errorf("%s table: %w", name, ErrNoRows)
	}
	return nil
}

// ReadRecords decodes a record file, one Record per line, however many
// runs appended to it. A line that does not decode, that carries another
// schema version or that has no result fails it, named by number.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<30)
	var recs []Record
	for n := 1; sc.Scan(); n++ {
		var rec Record
		err := json.Unmarshal(sc.Bytes(), &rec)
		switch {
		case err != nil:
		case rec.V != RecordVersion:
			err = fmt.Errorf("version %d, want %d", rec.V, RecordVersion)
		case rec.Result == nil:
			err = errors.New("no result")
		}
		if err != nil {
			return nil, fmt.Errorf("record line %d: %w", n, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// progressLines renders a run's progress line — a Sequential baseline's
// time, or a point's coordinates and time, tagged with its fault variant
// and its settings when it has them — plus, with histograms, its latency
// summary.
func progressLines(histograms bool) func(Record) []byte {
	return func(r Record) []byte {
		k, res := r.Point, r.Result
		if k.Sequential {
			return fmt.Appendf(nil, "seq  %-18s T=%v\n", k.App, res.Time)
		}
		tag := ""
		if k.Fault != "" {
			tag = " f=" + k.Fault
		}
		for _, p := range k.parts() {
			tag += " " + p
		}
		b := fmt.Appendf(nil, "run  %-18s %-5s %4dB %-9s T=%v%s\n",
			k.App, k.Protocol, k.Block, k.Notify, res.Time, tag)
		if histograms {
			fault := faultHist(res)
			b = fmt.Appendf(b, "lat  %-18s fault[%s] msg[%s] lock[%s]\n",
				k.App, fault.Summary(), res.MsgLatency.Summary(), res.Total.LockWait.Summary())
		}
		return b
	}
}

// recordLine renders the record itself, one JSON line.
func (s *Sink) recordLine(r Record) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return nil
	}
	return append(b, '\n')
}

// faultHist merges a run's read- and write-fault service-time
// distributions (the combined histogram the progress lines summarize).
func faultHist(res *core.Result) stats.Histogram {
	var h stats.Histogram
	h.Merge(&res.Total.ReadFaultTime)
	h.Merge(&res.Total.WriteFaultTime)
	return h
}

// Tables names a record's CSV projections, the tables Project writes.
var Tables = []string{"run", "prof", "crit", "sample"}

// tables are a record's CSV projections by the names Project takes, each
// building its table into a writer, with a fault column when asked.
var tables = map[string]func(w io.Writer, fault bool) *projection{
	"run": runTable,
	"sample": keyedTable(metrics.SeriesHeader,
		func(r *core.Result) *metrics.Series { return r.Samples }, (*metrics.Series).AppendRows),
	"prof": keyedTable(shareprof.CSVHeader,
		func(r *core.Result) *shareprof.Report { return r.Sharing }, (*shareprof.Report).AppendRows),
	"crit": keyedTable(critpath.CSVHeader,
		func(r *core.Result) *critpath.Report { return r.CritPath }, (*critpath.Report).AppendRow),
}

// csvHeader is the machine-readable schema, one row per run.
const csvHeader = "app,protocol,block,notify,nodes,time_ns,read_faults,write_faults,invalidations,twins,diffs,write_notices,lock_acquires,barrier_entries,net_msgs,net_bytes,fault_p50_ns,fault_p90_ns,fault_p99_ns,msg_p50_ns,msg_p90_ns,msg_p99_ns,lock_p50_ns,lock_p90_ns,lock_p99_ns,retransmits,wire_drops,dup_frames,retx_p50_ns,retx_p99_ns"

// runTable is the one-row-per-run schema (csvHeader), with the fault
// variant as a trailing column on fault-grid sweeps.
func runTable(w io.Writer, fault bool) *projection {
	header := csvHeader
	if fault {
		header += ",fault"
	}
	return &projection{w: w, header: header, render: func(r Record) []byte {
		res := r.Result
		t := res.Total
		fh := faultHist(res)
		row := fmt.Appendf(nil, "%s,%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes, int64(res.Time),
			t.ReadFaults, t.WriteFaults, t.Invalidations, t.TwinsCreated, t.DiffsCreated,
			t.WriteNoticesSent, t.LockAcquires, t.BarrierEntries, res.NetMsgs, res.NetBytes,
			fh.P50(), fh.P90(), fh.P99(),
			res.MsgLatency.P50(), res.MsgLatency.P90(), res.MsgLatency.P99(),
			t.LockWait.P50(), t.LockWait.P90(), t.LockWait.P99(),
			res.Retransmits, res.WireDrops, res.Duplicates,
			res.RetransmitLatency.P50(), res.RetransmitLatency.P99())
		if fault {
			row = append(append(row, ','), r.Point.Fault...)
		}
		return append(row, '\n')
	}}
}

// keyedTable builds the table of an observer's output: the run-key columns
// (the fault column last among them on fault-grid sweeps), then header.
// A run's rows are what rows renders from the part of its result get
// selects, each prefixed with its key columns; none when the observer was off.
func keyedTable[T any](header string, get func(*core.Result) *T,
	rows func(*T, []byte, string) []byte) func(io.Writer, bool) *projection {
	return func(w io.Writer, fault bool) *projection {
		key := "app,protocol,block,notify,nodes,"
		if fault {
			key += "fault,"
		}
		return &projection{w: w, header: key + header, render: func(r Record) []byte {
			v, res := get(r.Result), r.Result
			if v == nil {
				return nil
			}
			prefix := fmt.Sprintf("%s,%s,%d,%s,%d,", res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
			if fault {
				prefix += r.Point.Fault + ","
			}
			return rows(v, nil, prefix)
		}}
	}
}
