package metrics

import (
	"strings"
	"testing"

	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
)

func TestSamplerDeltasAndFinish(t *testing.T) {
	nodes := []*stats.Node{{}, {}}
	var msgs int64
	s := NewSampler(100, nodes, Probes{
		Traffic:   func() network.Traffic { return network.Traffic{MsgsSent: msgs, BytesSent: msgs * 10} },
		LockQueue: func() int64 { return 3 },
	})
	nodes[0].ReadFaults = 5
	nodes[1].Compute = 40
	msgs = 7
	s.Tick(100)
	nodes[0].ReadFaults = 6
	s.Tick(200)
	// Nothing new, run ends mid-interval.
	nodes[1].WriteFaults = 2
	s.Finish(250)
	sm := s.Series().Samples
	if len(sm) != 3 {
		t.Fatalf("%d samples, want 3", len(sm))
	}
	if sm[0].Delta.ReadFaults != 5 || sm[0].Delta.Compute != 40 || sm[0].NetMsgs != 7 ||
		sm[0].NetBytes != 70 || sm[0].LockQueue != 3 {
		t.Errorf("first sample wrong: %+v", sm[0])
	}
	if sm[1].Delta.ReadFaults != 1 || sm[1].NetMsgs != 0 {
		t.Errorf("second sample is not a delta: %+v", sm[1])
	}
	if sm[2].At != 250 || sm[2].Delta.WriteFaults != 2 {
		t.Errorf("final partial sample wrong: %+v", sm[2])
	}
	// Finish at an already-sampled time must not add an empty sample.
	s.Finish(250)
	if len(s.Series().Samples) != 3 {
		t.Error("double Finish added a sample")
	}
}

func TestSeriesCSVDeterministic(t *testing.T) {
	mk := func() *Series {
		return &Series{Every: 100, Nodes: 2, Samples: []Sample{
			{At: 100, Delta: stats.Snapshot{ReadFaults: 3, Compute: 50, ReadStall: 30}, NetMsgs: 4, NetBytes: 400},
			{At: 150, Delta: stats.Snapshot{DiffPayloadBytes: 1024}, LockQueue: 1},
		}}
	}
	a, b := mk().AppendRows([]byte(SeriesHeader+"\n"), ""), mk().AppendRows([]byte(SeriesHeader+"\n"), "")
	if string(a) != string(b) {
		t.Fatal("identical series produced different CSV")
	}
	lines := strings.Split(strings.TrimRight(string(a), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows", len(lines))
	}
	if lines[0] != SeriesHeader {
		t.Fatalf("header = %q", lines[0])
	}
	// Row 1: interval 100ns, 3 faults → 3/100ns = 3e7/s.
	if !strings.Contains(lines[1], ",30000000.000,") {
		t.Errorf("fault rate not rendered: %q", lines[1])
	}
	// Stall fraction row 1: 30ns stall over 2 nodes × 100ns = 0.150.
	if !strings.Contains(lines[1], ",0.150,") {
		t.Errorf("stall fraction not rendered: %q", lines[1])
	}
	// Prefixed rows carry the prefix verbatim.
	rows := string(mk().AppendRows(nil, "lu,sc,64,polling,2,"))
	for _, r := range strings.Split(strings.TrimRight(rows, "\n"), "\n") {
		if !strings.HasPrefix(r, "lu,sc,64,polling,2,") {
			t.Fatalf("row missing prefix: %q", r)
		}
	}
}

func TestPhaseAccountantTail(t *testing.T) {
	a := NewPhaseAccountant(2)
	n0, n1 := &stats.Node{}, &stats.Node{}
	n0.Compute = 80
	n0.BarrierStall = 20
	a.Cut(0, 100, n0)
	n1.Compute = 100
	a.Cut(1, 100, n1)
	// Tail work after the last barrier on node 0 only.
	n0.Compute = 110
	a.Cut(0, 130, n0)
	a.Cut(1, 100, n1) // node 1 finished at the barrier
	ph := a.Phases()
	if len(ph) != 2 {
		t.Fatalf("%d phases, want 2", len(ph))
	}
	if ph[0].Span != 200 || ph[0].Delta.Compute != 180 || ph[0].SyncWait() != 20 {
		t.Errorf("phase 0 wrong: %+v", ph[0])
	}
	if ph[1].Span != 30 || ph[1].Delta.Compute != 30 || ph[1].End != 130 {
		t.Errorf("tail phase wrong: %+v", ph[1])
	}
}

func TestPhaseAccountantDropsEmptyTail(t *testing.T) {
	a := NewPhaseAccountant(1)
	n := &stats.Node{Compute: 50}
	a.Cut(0, 50, n)
	a.Cut(0, 50, n) // finish cut with nothing since the barrier
	if ph := a.Phases(); len(ph) != 1 {
		t.Fatalf("%d phases, want empty tail dropped", len(ph))
	}
}

// TestFoldPhases: the first n phases stay rows of their own, the rest sum
// into one row labelled with their index range, and n = 0 folds the run.
func TestFoldPhases(t *testing.T) {
	var phases []Phase
	for i := 0; i < 5; i++ {
		phases = append(phases, Phase{Index: i, End: sim.Time(10 * (i + 1)), Span: sim.Time(i + 1),
			Delta: stats.Snapshot{Compute: sim.Time(i), ReadStall: 1, BarrierStall: 2, Stolen: 3}})
	}
	rows := FoldPhases(phases, 3)
	if len(rows) != 4 || rows[0].Label != "0" || rows[2].Label != "2" || rows[2].Phase != phases[2] {
		t.Fatalf("rows %+v", rows)
	}
	if rest := rows[3]; rest.Label != "3-4" || rest.Index != 3 || rest.End != 50 || rest.Span != 9 ||
		rest.Delta.Compute != 7 || rest.DataWait() != 2 || rest.SyncWait() != 4 || rest.Overhead() != 6 {
		t.Fatalf("folded row %+v", rest)
	}
	if all := FoldPhases(phases, 0); len(all) != 1 || all[0].Label != "0-4" || all[0].Span != 15 {
		t.Fatalf("whole run %+v", all)
	}
	if rows := FoldPhases(phases, 5); len(rows) != 5 || rows[4].Label != "4" {
		t.Fatalf("uncapped rows %+v", rows)
	}
}
