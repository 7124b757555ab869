package trace_test

import (
	"io"
	"testing"

	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// TestEmitZeroAlloc pins the on-cost contract: writing the line trace, an
// event allocates nothing — not in the encoders, and not at the call site,
// whose variadic []Arg stays on its stack as long as nothing reachable from
// an Event outlives Emit. The calls are made from outside the package, as
// the instrumentation sites make them, so the slice measured is a caller's.
func TestEmitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	tr := trace.New(eng, io.Discard)
	block, dst := int64(7), int64(3) // not constants: the args are built per call
	for _, form := range []struct {
		name string
		emit func()
	}{
		{"Instant", func() {
			tr.Instant(2, trace.CatNet, "send", trace.A("dst", dst), trace.A("kind", 101),
				trace.A("block", block), trace.A("bytes", 256))
		}},
		{"InstantMsg", func() {
			tr.InstantMsg(2, trace.CatMem, "tag", "NoAccess->ReadOnly", trace.A("block", block))
		}},
		{"InstantMsgID", func() { tr.InstantMsgID(2, trace.CatSim, "block", "read fault", int(block)) }},
		{"Span", func() {
			tr.Span(2, trace.CatNet, "serve", 0, trace.A("src", dst), trace.A("kind", 101),
				trace.A("block", block), trace.A("wait", 12))
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, form.emit); allocs != 0 {
			t.Errorf("%s allocated %.1f objects per event, want 0", form.name, allocs)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}
