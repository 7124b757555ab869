package sweep

import (
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

// Sink writes all human- and machine-readable per-run output — progress
// lines, latency summaries, CSV records — under one mutex, so that
// concurrent runs never interleave partial lines and the writers themselves
// need no locking. Emission order is whatever order Emit/Logf are called
// in; the sweep scheduler calls them in canonical sweep order regardless of
// run completion order, which is what makes parallel output byte-identical
// to serial. Every call has written its bytes by the time it returns.
type Sink struct {
	mu         sync.Mutex
	progress   io.Writer
	tables     []*csvTable
	histograms bool

	// enriched switches progress lines to the metrics format: a
	// completion counter prefix and per-run fault/traffic fields. The
	// counter counts emissions, which happen in canonical sweep order, so
	// enriched output is as parallelism-independent as the legacy format.
	enriched bool
	emitted  int
}

// NewSink builds a sink. progress, csv, samples, profs and crits may be
// nil; histograms adds a latency-distribution line after each run record;
// enriched selects the counter-prefixed progress format (the live-metrics
// mode); faultCol adds the fault-variant column to every CSV schema
// (fault-grid sweeps; progress lines tag a point's variant whenever it has
// one).
func NewSink(progress, csv io.Writer, histograms bool, samples, profs, crits io.Writer, enriched, faultCol bool) *Sink {
	s := &Sink{progress: progress, histograms: histograms, enriched: enriched}
	for _, t := range []*csvTable{
		runTable(csv, faultCol),
		keyedTable(samples, faultCol, metrics.SeriesHeader,
			func(r *core.Result) *metrics.Series { return r.Samples }, (*metrics.Series).AppendRows),
		keyedTable(profs, faultCol, shareprof.CSVHeader,
			func(r *core.Result) *shareprof.Report { return r.Sharing }, (*shareprof.Report).AppendRows),
		keyedTable(crits, faultCol, critpath.CSVHeader,
			func(r *core.Result) *critpath.Report { return r.CritPath }, (*critpath.Report).AppendRow),
	} {
		if t.w != nil {
			s.tables = append(s.tables, t)
		}
	}
	return s
}

// Emit reports one completed run: a progress line, the optional latency
// summary, and the CSV record. Sequential-baseline runs get a progress line
// only (they are not part of the paper's evaluation matrix).
func (s *Sink) Emit(k Key, res *core.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.progress != nil {
		prefix := ""
		if s.enriched {
			s.emitted++
			prefix = fmt.Sprintf("[%4d] ", s.emitted)
		}
		if k.Sequential {
			fmt.Fprintf(s.progress, "%sseq  %-18s T=%v\n", prefix, k.App, res.Time)
		} else {
			tag := ""
			if k.Fault != "" {
				tag = " f=" + k.Fault
			}
			if s.enriched {
				fmt.Fprintf(s.progress, "%srun  %-18s %-5s %4dB %-9s T=%v rf=%d wf=%d msgs=%d%s\n",
					prefix, k.App, k.Protocol, k.Block, k.Notify, res.Time,
					res.Total.ReadFaults, res.Total.WriteFaults, res.NetMsgs, tag)
			} else {
				fmt.Fprintf(s.progress, "run  %-18s %-5s %4dB %-9s T=%v%s\n",
					k.App, k.Protocol, k.Block, k.Notify, res.Time, tag)
			}
			if s.histograms {
				fault := FaultHist(res)
				fmt.Fprintf(s.progress, "lat  %-18s fault[%s] msg[%s] lock[%s]\n",
					k.App, fault.Summary(), res.MsgLatency.Summary(), res.Total.LockWait.Summary())
			}
		}
	}
	if !k.Sequential {
		for _, t := range s.tables {
			t.Write(k, res)
		}
	}
}

// Logf writes one formatted progress line under the sink's lock (for
// experiment-specific lines outside the standard matrix).
func (s *Sink) Logf(format string, args ...any) {
	if s.progress == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.progress, format+"\n", args...)
}

// Close does nothing: every record is written by the time Emit or Logf
// returns. It stays for callers that still close their sinks.
func (s *Sink) Close() {}

// FaultHist merges a run's read- and write-fault service-time
// distributions (the combined histogram the progress lines summarize).
func FaultHist(res *core.Result) stats.Histogram {
	var h stats.Histogram
	h.Merge(&res.Total.ReadFaultTime)
	h.Merge(&res.Total.WriteFaultTime)
	return h
}

// csvHeader is the machine-readable schema, one record per run.
const csvHeader = "app,protocol,block,notify,nodes,time_ns,read_faults,write_faults,invalidations,twins,diffs,write_notices,lock_acquires,barrier_entries,net_msgs,net_bytes,fault_p50_ns,fault_p90_ns,fault_p99_ns,msg_p50_ns,msg_p90_ns,msg_p99_ns,lock_p50_ns,lock_p90_ns,lock_p99_ns,retransmits,wire_drops,dup_frames,retx_p50_ns,retx_p99_ns"

// csvTable is the one CSV output type: a header written exactly once, and
// suppressed when the underlying writer is a file that already holds
// records (the CLIs open their CSV files in append mode), then whatever
// rows the table's schema renders for each run. Rows reach it in canonical
// sweep order under the Sink's lock, so every file is byte-identical at any
// parallelism.
type csvTable struct {
	w      io.Writer
	header string
	// rows renders one run's newline-terminated rows; nil when the run
	// carries none of this table's data (an observer that was off).
	rows    func(k Key, res *core.Result) []byte
	started bool // header decision made
}

// Write appends one run's rows, deciding the header question first. The
// caller holds the Sink's lock.
func (c *csvTable) Write(k Key, res *core.Result) {
	rows := c.rows(k, res)
	if rows == nil {
		return
	}
	if !c.started {
		c.started = true
		if !hasExistingData(c.w) {
			fmt.Fprintln(c.w, c.header)
		}
	}
	c.w.Write(rows)
}

// runTable is the one-record-per-run schema (csvHeader), with the fault
// variant as a trailing column on fault-grid sweeps.
func runTable(w io.Writer, fault bool) *csvTable {
	header := csvHeader
	if fault {
		header += ",fault"
	}
	return &csvTable{w: w, header: header, rows: func(k Key, res *core.Result) []byte {
		t := res.Total
		fh := FaultHist(res)
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
			row = append(append(row, ','), k.Fault...)
		}
		return append(row, '\n')
	}}
}

// keyedTable is the schema of an observer's output: the run-key columns,
// then header; one run's rows are whatever rows renders from the part of
// the result get selects, and nothing when the observer was off.
func keyedTable[T any](w io.Writer, fault bool, header string,
	get func(*core.Result) *T, rows func(*T, []byte, string) []byte) *csvTable {
	return &csvTable{w: w, header: keyHeader(fault) + header, rows: func(k Key, res *core.Result) []byte {
		v := get(res)
		if v == nil {
			return nil
		}
		return rows(v, nil, keyPrefix(k, res, fault))
	}}
}

// keyHeader is the run-key column prefix of the sample and profile
// schemas, with the fault column appended on fault-grid sweeps.
func keyHeader(fault bool) string {
	if fault {
		return "app,protocol,block,notify,nodes,fault,"
	}
	return "app,protocol,block,notify,nodes,"
}

// keyPrefix renders one run's key-column prefix.
func keyPrefix(k Key, res *core.Result, fault bool) string {
	if fault {
		return fmt.Sprintf("%s,%s,%d,%s,%d,%s,", res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes, k.Fault)
	}
	return fmt.Sprintf("%s,%s,%d,%s,%d,", res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
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
