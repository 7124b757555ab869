package critpath

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// chainTracker builds a minimal three-segment chain: node 0 computes
// [0,100], transmits a protocol message (kind 100) to node 1 over
// [100,150] (40ns of pure wire), which is serviced [150,170].
func chainTracker() *Tracker {
	t := New(2)
	t.ComputeSeg(0, 0, 100, 100, 100)
	x := t.Xmit(0, 1, 100, 5, 100, 150, 40)
	t.SvcStart(1, 100, 5, x, 150, 150, 20)
	t.BeginHandler(1)
	t.EndHandler()
	return t
}

func TestSyntheticChainReport(t *testing.T) {
	tr := chainTracker()
	rep := tr.Report(nil, 0)
	if rep.Total != 170 {
		t.Fatalf("Total = %v, want 170", rep.Total)
	}
	if rep.Events != 3 || rep.Recorded != 3 {
		t.Fatalf("Events/Recorded = %d/%d, want 3/3", rep.Events, rep.Recorded)
	}
	var sum sim.Time
	for c := Component(0); c < NumComponents; c++ {
		sum += rep.Components[c]
	}
	if sum != rep.Total {
		t.Fatalf("component sum %v != Total %v", sum, rep.Total)
	}
	if rep.Components[Compute] != 100 || rep.Components[MsgWire] != 50 || rep.Components[MsgService] != 20 {
		t.Fatalf("components = %v", rep.Components)
	}
	if rep.Scalable[ClassCompute] != 100 || rep.Scalable[ClassMsg] != 40 || rep.Scalable[ClassSvc] != 20 {
		t.Fatalf("scalable = %v", rep.Scalable)
	}
	if rep.Nodes[0].Time != 100 || rep.Nodes[1].Time != 70 {
		t.Fatalf("node attribution = %+v", rep.Nodes)
	}
}

func TestPathSpansContiguous(t *testing.T) {
	tr := chainTracker()
	spans := slices.Collect(tr.Path())
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Start != 0 {
		t.Fatalf("path roots at %v, want 0", spans[0].Start)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("span %d starts at %v, previous ends at %v", i, spans[i].Start, spans[i-1].End)
		}
	}
	if spans[2].End != 170 {
		t.Fatalf("path ends at %v, want 170", spans[2].End)
	}
	if spans[1].Comp != MsgWire || spans[1].Block != 5 {
		t.Fatalf("wire span = %+v", spans[1])
	}
}

// TestPathLeavesTrackerIntact: Path turns the chain's links around while it
// walks it, and every way out of the loop turns them back.
func TestPathLeavesTrackerIntact(t *testing.T) {
	tr := longChain(2*chunkLen + 5)
	want, rep := slices.Collect(tr.Path()), tr.Report(nil, 0)
	if len(want) != 2*chunkLen+5 || want[0].Start != 0 {
		t.Fatalf("path of %d spans from %v, want %d from 0", len(want), want[0].Start, 2*chunkLen+5)
	}
	for _, stop := range []int{0, 1, chunkLen, len(want) - 1, len(want)} {
		seen := 0
		for range tr.Path() {
			if seen == stop {
				break
			}
			seen++
		}
		if got := slices.Collect(tr.Path()); !slices.Equal(got, want) {
			t.Fatalf("after a walk stopped at span %d the path differs", stop)
		}
		if got := tr.Report(nil, 0); !reflect.DeepEqual(got, rep) {
			t.Fatalf("after a walk stopped at span %d the report differs:\n%+v\nwant %+v", stop, got, rep)
		}
	}
}

// TestBlockedIntervalOnMessageChain: a proc blocked across a message
// round trip contributes no proc-side length — the wait lives on the
// message chain, so the path stays exact.
func TestBlockedIntervalOnMessageChain(t *testing.T) {
	tr := New(2)
	tr.ComputeSeg(0, 0, 50, 50, 50)
	x := tr.Xmit(0, 1, 100, 2, 50, 90, 30)
	tr.Block(0, 50) // requester blocks at the send
	tr.SvcStart(1, 100, 2, x, 90, 90, 10)
	tr.BeginHandler(1)
	// The handler's reply wakes node 0 at 130.
	rx := tr.Xmit(1, 0, 101, 2, 100, 130, 25)
	tr.EndHandler()
	tr.SvcStart(0, 101, 2, rx, 130, 130, 5)
	tr.BeginHandler(0)
	tr.Unblock(0, 135)
	tr.EndHandler()
	tr.Finish(0, 200)
	rep := tr.Report(nil, 0)
	if rep.Total != 200 {
		t.Fatalf("Total = %v, want 200 (blocked interval must not double-count)", rep.Total)
	}
	var sum sim.Time
	for c := Component(0); c < NumComponents; c++ {
		sum += rep.Components[c]
	}
	if sum != rep.Total {
		t.Fatalf("component sum %v != Total %v", sum, rep.Total)
	}
}

func TestComponentClassification(t *testing.T) {
	cases := []struct {
		kind int
		wire Component
		svc  Component
	}{
		{0, LockWait, LockWait},
		{3, LockWait, LockWait},
		{4, BarrierWait, BarrierWait},
		{5, BarrierWait, BarrierWait},
		{100, MsgWire, MsgService},
		{117, MsgWire, MsgService},
	}
	for _, c := range cases {
		if got := wireComp(c.kind); got != c.wire {
			t.Errorf("wireComp(%d) = %v, want %v", c.kind, got, c.wire)
		}
		if got := svcComp(c.kind); got != c.svc {
			t.Errorf("svcComp(%d) = %v, want %v", c.kind, got, c.svc)
		}
	}
}

func TestParseScale(t *testing.T) {
	s, err := ParseScale("lock=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != ClassLock || s.PPM != 500000 {
		t.Fatalf("scale = %+v", s)
	}
	if got := s.String(); got != "lock=0.5" {
		t.Fatalf("String = %q", got)
	}
	if s, err := ParseScale("msg=0"); err != nil || s.PPM != 0 {
		t.Fatalf("msg=0: %v, %+v", err, s)
	}
	if s, err := ParseScale("compute=2"); err != nil || s.PPM != 2000000 {
		t.Fatalf("compute=2: %v, %+v", err, s)
	}
	for _, bad := range []string{"", "lock", "frobnicate=1", "lock=-1", "lock=101", "lock=x", "lock=NaN"} {
		if _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted", bad)
		}
	}
}

func TestScaleGating(t *testing.T) {
	msg := &Scale{Class: ClassMsg, PPM: 500000}
	if got := msg.Wire(100, 1000); got != 500 {
		t.Errorf("msg scale on proto wire = %v, want 500", got)
	}
	if got := msg.Wire(2, 1000); got != 1000 {
		t.Errorf("msg scale must not touch lock wire, got %v", got)
	}
	if got := msg.SvcCost(100, 1000); got != 1000 {
		t.Errorf("msg scale must not touch service cost, got %v", got)
	}
	lock := &Scale{Class: ClassLock, PPM: 500000}
	if got := lock.Wire(2, 1000); got != 500 {
		t.Errorf("lock scale on lock wire = %v, want 500", got)
	}
	if got := lock.SvcCost(2, 1000); got != 500 {
		t.Errorf("lock scale on lock service = %v, want 500", got)
	}
	if got := lock.Wire(4, 1000); got != 1000 {
		t.Errorf("lock scale must not touch barrier wire, got %v", got)
	}
	if got := lock.Wire(100, 1000); got != 1000 {
		t.Errorf("lock scale must not touch proto wire, got %v", got)
	}
	comp := &Scale{Class: ClassCompute, PPM: 250000}
	if got := comp.ComputeCost(1000); got != 250 {
		t.Errorf("compute scale = %v, want 250", got)
	}
	if got := lock.ComputeCost(1000); got != 1000 {
		t.Errorf("lock scale must not touch compute, got %v", got)
	}
	// A nil scale is the identity everywhere.
	var nilScale *Scale
	if nilScale.Wire(100, 7) != 7 || nilScale.SvcCost(100, 7) != 7 || nilScale.ComputeCost(7) != 7 {
		t.Error("nil scale is not the identity")
	}
}

func TestPredict(t *testing.T) {
	rep := &Report{Total: 1000}
	rep.Scalable[ClassLock] = 400
	s := &Scale{Class: ClassLock, PPM: 500000}
	if got := rep.Predict(s); got != 800 {
		t.Fatalf("Predict = %v, want 800 (1000 - 400 + 200)", got)
	}
	zero := &Scale{Class: ClassLock, PPM: 0}
	if got := rep.Predict(zero); got != 600 {
		t.Fatalf("Predict(lock=0) = %v, want 600", got)
	}
	other := &Scale{Class: ClassMsg, PPM: 0}
	if got := rep.Predict(other); got != 1000 {
		t.Fatalf("Predict(msg=0) with no scalable msg time = %v, want 1000", got)
	}
}

func TestCSVRow(t *testing.T) {
	tr := chainTracker()
	rep := tr.Report(nil, 0)
	csv := CSVHeader + "\n" + string(rep.AppendRow(nil, ""))
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want 2", len(lines))
	}
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "170,3,100,0,0,50,20,0,0,0,0" {
		t.Fatalf("row = %q", lines[1])
	}
	row := string(rep.AppendRow(nil, "lu,hlrc,"))
	if row != "lu,hlrc,170,3,100,0,0,50,20,0,0,0,0\n" {
		t.Fatalf("prefixed row = %q", row)
	}
}

func TestRegionize(t *testing.T) {
	tr := New(2)
	tr.ComputeSeg(0, 0, 10, 10, 10)
	x := tr.Xmit(0, 1, 100, 3, 10, 30, 15) // block 3 → addr 3072 with 1KB blocks
	tr.SvcStart(1, 100, 3, x, 30, 30, 5)
	tr.BeginHandler(1)
	tr.EndHandler()
	regions := []mem.Region{
		{Name: "matrix", Start: 0, Size: 2048},
		{Name: "vector", Start: 2048, Size: 4096},
	}
	rep := tr.Report(regions, 1024)
	if len(rep.Regions) != 1 || rep.Regions[0].Name != "vector" {
		t.Fatalf("regions = %+v, want the vector region only", rep.Regions)
	}
	if rep.Regions[0].Time != 25 || rep.Regions[0].Events != 2 {
		t.Fatalf("vector attribution = %+v", rep.Regions[0])
	}
	// A block in the gap between two regions, and any block without a block
	// size, is unlabeled.
	gap := []mem.Region{{Name: "matrix", Start: 0, Size: 2048}, {Name: "vector", Start: 4096, Size: 4096}}
	for _, rep := range []*Report{tr.Report(gap, 1024), tr.Report(regions, 0)} {
		if len(rep.Regions) != 1 || rep.Regions[0] != (RegionTime{Name: "(unlabeled)", Time: 25, Events: 2}) {
			t.Fatalf("regions = %+v, want the unlabeled remainder only", rep.Regions)
		}
	}
}

func TestArqRecordsEndAtFireTime(t *testing.T) {
	tr := New(2)
	tr.ComputeSeg(0, 0, 10, 10, 10)
	pred := tr.ArqPred(0, 10)
	f := tr.ArqFrame(pred, 1, 4, tr.WireComp(100, true), 10, 40)
	tm := tr.ArqTimer(pred, 0, 10, 200)
	tr.SetContext(f)
	a := tr.ArqAck(0, 40, 55)
	rel := tr.ArqRelease(f, 1, 4, 70)
	tr.ClearContext()
	if tr.rec(f).end != 40 || tr.rec(tm).end != 200 || tr.rec(a).end != 55 {
		t.Fatalf("record ends: frame %v timer %v ack %v", tr.rec(f).end, tr.rec(tm).end, tr.rec(a).end)
	}
	if rel == f {
		t.Fatal("reorder release after the arrival must add a wait record")
	}
	if r := tr.rec(rel); r.start != 40 || r.end != 70 || r.comp != Retransmit {
		t.Fatalf("release record = %+v", r)
	}
	// Release at (or before) the arrival instant is the identity.
	if got := tr.ArqRelease(f, 1, 4, 40); got != f {
		t.Fatalf("same-instant release re-stamped to %d", got)
	}
	// The retransmit attempt books to Retransmit regardless of kind.
	if c := tr.WireComp(100, false); c != Retransmit {
		t.Fatalf("retransmission component = %v", c)
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	tr := chainTracker()
	st := tr.CaptureState()
	// Mutating the original must not leak into the snapshot.
	tr.ComputeSeg(0, 100, 50, 50, 150)
	fresh := New(2)
	fresh.RestoreState(st)
	rep := fresh.Report(nil, 0)
	if rep.Total != 170 || rep.Events != 3 {
		t.Fatalf("restored report = Total %v Events %d, want 170/3", rep.Total, rep.Events)
	}
	// Restore re-copies: appending to the restored tracker must leave the
	// snapshot usable for further forks.
	fresh.ComputeSeg(0, 170, 10, 10, 180)
	second := New(2)
	second.RestoreState(st)
	if got := second.Report(nil, 0).Total; got != 170 {
		t.Fatalf("second restore total = %v, want 170", got)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	tr := chainTracker()
	rep := tr.Report(nil, 0)
	var a, b strings.Builder
	if err := rep.WriteText(&a, 3); err != nil {
		t.Fatal(err)
	}
	rep.WriteText(&b, 3)
	if a.String() != b.String() {
		t.Fatal("WriteText not deterministic")
	}
	if !strings.Contains(a.String(), "critical path: 0.000ms over 3 events") {
		t.Fatalf("report text:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "msg-wire") {
		t.Fatalf("report text missing components:\n%s", a.String())
	}
}

// longChain records n back-to-back 10 ns compute segments on node 0.
func longChain(n int) *Tracker {
	t := New(1)
	for i := 0; i < n; i++ {
		t.seg(0, sim.Time(10*(i+1)), Compute, 0)
	}
	return t
}

// TestRecordStoreSpansChunks: ids keep addressing the right record across
// chunk boundaries — in the walk back, and through a capture and restore
// that must leave snapshot and original independent.
func TestRecordStoreSpansChunks(t *testing.T) {
	const n = 2*chunkLen + 5
	tr := longChain(n)
	rep := tr.Report(nil, 0)
	if rep.Total != 10*n || rep.Events != n || rep.Recorded != n {
		t.Fatalf("report = Total %v Events %d Recorded %d, want %d/%d/%d", rep.Total, rep.Events, rep.Recorded, 10*n, n, n)
	}
	for _, id := range []int32{1, chunkLen, chunkLen + 1, 2 * chunkLen, n} {
		if r := tr.rec(id); r.end != sim.Time(10*id) || r.pred != id-1 {
			t.Fatalf("record %d = %+v", id, *r)
		}
	}
	want := slices.Collect(tr.Path())
	st := tr.CaptureState()
	tr.rec(chunkLen + 1).end = -1 // the snapshot must not alias the tracker's chunks
	fresh := New(1)
	fresh.RestoreState(st)
	fresh.rec(2).end = -1 // nor the restored tracker the snapshot's
	second := New(1)
	second.RestoreState(st)
	if got := slices.Collect(second.Path()); !slices.Equal(got, want) {
		t.Fatalf("path after capture and restore differs: %d spans, want %d", len(got), len(want))
	}
	second.seg(0, 10*(n+1), Compute, 0)
	if got := second.Report(nil, 0); got.Total != 10*(n+1) || got.Recorded != n+1 {
		t.Fatalf("restored tracker continued to Total %v Recorded %d", got.Total, got.Recorded)
	}
}

// TestRecordStoreGrowthNeverCopies: ten times the records cost ten times
// the bytes. A store that grows by doubling append re-copies everything it
// holds at each step, and allocates 2.5-3x what it ends up holding.
func TestRecordStoreGrowthNeverCopies(t *testing.T) {
	// longChain releases nothing, so every chunk is allocated, not drawn.
	defer mem.IsolatePools(nil)()
	bytes := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		longChain(n)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const n = 5 * chunkLen
	small, large := bytes(n), bytes(10*n)
	t.Logf("%d records: %.0f bytes; %d records: %.0f bytes (%.1fx)", n, small, 10*n, large, large/small)
	if large > 12*small {
		t.Errorf("10x the records cost %.1fx the bytes, ceiling 12x", large/small)
	}
	var r record
	if perRecord := large / (10 * n); perRecord > 1.1*float64(unsafe.Sizeof(r)) {
		t.Errorf("%.1f bytes allocated per %d-byte record: growth is copying", perRecord, unsafe.Sizeof(r))
	}
}
