package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

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

// Record is the one serialization of a finished point: the point and its
// whole result, per-node statistics, histograms, phases, samples, sharing
// profile, critical path and reliability counters included (the final
// image is not). The sink writes it with encoding/json as one line per
// emitted run, baselines included. Nothing in it depends on the host or the
// build, so a record file is byte-identical at any parallelism, like the
// CSVs — which, like every other sink output, are projections of it.
type Record struct {
	V      int          `json:"v"`
	Point  Key          `json:"point"`
	Result *core.Result `json:"result"`
}

// Sink writes every per-run output — progress lines, CSV tables, record
// lines — under one mutex, so that concurrent runs never interleave partial
// lines and the writers themselves need no locking. Emission order is
// whatever order Emit/Logf are called in; the sweep scheduler calls them in
// canonical sweep order regardless of run completion order, which is what
// makes parallel output byte-identical to serial. Every call has written
// its bytes by the time it returns.
type Sink struct {
	mu       sync.Mutex
	progress io.Writer // Logf's destination
	outputs  []*projection
	err      error // the first write that failed
}

// projection is one output of a sink: the bytes render draws from a
// record, written to w; render returns nil when the record has none of
// this output's data. A projection with a header is a CSV table: the
// header goes before its first row unless w is a file that already holds
// data (the CLIs open their files in append mode), and a Sequential
// baseline, which is not part of the paper's evaluation matrix, has no
// rows in it.
type projection struct {
	w       io.Writer
	header  string
	render  func(r Record) []byte
	started bool
}

// SinkFor builds the sink of an engine running under o: its progress,
// CSV and record writers, with a fault column in every CSV schema when o
// has a fault grid.
func SinkFor(o Options) *Sink { return newSink(o, len(o.FaultGrid) > 0) }

// NewSink is SinkFor with the writers spelled positionally, as the
// benchmark probes call it: a nil writer leaves its output out, and
// faultCol adds the fault column. The seventh argument is ignored
// (it selected the enriched progress format, which is gone).
func NewSink(progress, csv io.Writer, histograms bool, samples, profs, crits io.Writer, _, faultCol bool) *Sink {
	return newSink(Options{Progress: progress, CSV: csv, Histograms: histograms,
		SampleCSV: samples, ProfCSV: profs, CritCSV: crits}, faultCol)
}

func newSink(o Options, fault bool) *Sink {
	s := &Sink{progress: o.Progress}
	for _, p := range []*projection{
		{w: o.Progress, render: progressLines(o.Histograms)},
		runTable(o.CSV, fault),
		keyedTable(o.SampleCSV, fault, metrics.SeriesHeader,
			func(r *core.Result) *metrics.Series { return r.Samples }, (*metrics.Series).AppendRows),
		keyedTable(o.ProfCSV, fault, shareprof.CSVHeader,
			func(r *core.Result) *shareprof.Report { return r.Sharing }, (*shareprof.Report).AppendRows),
		keyedTable(o.CritCSV, fault, critpath.CSVHeader,
			func(r *core.Result) *critpath.Report { return r.CritPath }, (*critpath.Report).AppendRow),
		{w: o.Record, render: s.recordLine},
	} {
		if p.w != nil {
			s.outputs = append(s.outputs, p)
		}
	}
	return s
}

// Emit writes one completed run to every output, each rendering its part
// of the run's record. It returns the first write error the sink has met,
// this call's or an earlier one's: an output that lost a write is
// incomplete, so the sweep writing it must fail.
func (s *Sink) Emit(k Key, res *core.Result) error {
	r := Record{V: RecordVersion, Point: k, Result: res}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.outputs {
		if k.Sequential && p.header != "" {
			continue
		}
		b := p.render(r)
		if b == nil {
			continue
		}
		if !p.started {
			p.started = true
			if p.header != "" && !hasExistingData(p.w) {
				s.write(p.w, []byte(p.header+"\n"))
			}
		}
		s.write(p.w, b)
	}
	return s.err
}

// Logf writes one formatted progress line under the sink's lock (for
// experiment-specific lines outside the standard matrix). A failed write
// surfaces from the next Emit.
func (s *Sink) Logf(format string, args ...any) {
	if s.progress == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write(s.progress, fmt.Appendf(nil, format+"\n", args...))
}

// write hands b to w and keeps the first error. The caller holds the lock.
func (s *Sink) write(w io.Writer, b []byte) {
	if _, err := w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
}

// Close does nothing: every record is written by the time Emit or Logf
// returns. It stays for callers that still close their sinks.
func (s *Sink) Close() {}

// progressLines renders a run's progress line — a Sequential baseline's
// time, or a matrix point's coordinates and time, tagged with its fault
// variant when it has one — plus, with histograms, its latency summary.
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

// keyedTable is the schema of an observer's output: the run-key columns
// (the fault column last among them on fault-grid sweeps), then header.
// One run's rows are whatever rows renders from the part of the result get
// selects, each prefixed with the run's key columns, and nothing when the
// observer was off.
func keyedTable[T any](w io.Writer, fault bool, header string,
	get func(*core.Result) *T, rows func(*T, []byte, string) []byte) *projection {
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

// hasExistingData reports whether w is a seekable file that already holds
// bytes (the append-mode case where the header must be suppressed).
func hasExistingData(w io.Writer) bool {
	type statter interface{ Stat() (os.FileInfo, error) }
	if s, ok := w.(statter); ok {
		if fi, err := s.Stat(); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}
