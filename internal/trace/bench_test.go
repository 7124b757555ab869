package trace_test

import (
	"testing"
	"time"

	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// byteCounter is a sink that keeps only the number of bytes written to it.
type byteCounter struct{ n int64 }

func (w *byteCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// emitMix emits event i of a recorded mix, in the proportions a 16-node lu
// run at 256 B writes its five commonest lines (2144 send, recv and serve,
// 816 tag, 688 fault): send, recv and serve three times each, then a tag
// and a fault. The args are the instrumentation sites' own.
func emitMix(tr *trace.Tracer, i int) {
	node, peer, block := i%16, int64((i+5)%16), int64(i%4096)
	switch i % 11 {
	case 0, 3, 6:
		tr.Instant(node, trace.CatNet, "send", trace.A("dst", peer), trace.A("kind", 101),
			trace.A("block", block), trace.A("bytes", 256))
	case 1, 4, 7:
		tr.Instant(node, trace.CatNet, "recv", trace.A("src", peer), trace.A("kind", 101),
			trace.A("block", block))
	case 2, 5, 8:
		tr.Span(node, trace.CatNet, "serve", 0, trace.A("src", peer), trace.A("kind", 101),
			trace.A("block", block), trace.A("wait", 1200))
	case 9:
		tr.InstantMsg(node, trace.CatMem, "tag", "NoAccess->ReadOnly", trace.A("block", block))
	default:
		tr.Span(node, trace.CatMem, "fault", 0, trace.A("block", block), trace.A("write", trace.Bool(i%2 == 0)))
	}
}

// BenchmarkEmit is the tracer's own number. ns/event is what emitting
// costs the goroutine that emits — the simulation's: the events come in
// bursts a tracer's batches hold without waiting on the encoder, with a
// Flush between two, and the flushes are not counted. MB/s is the rate the
// lines reach the sink, from the first emit to the end of the final Close,
// flushes included; ns/op spreads that same whole time over the events.
func BenchmarkEmit(b *testing.B) {
	const burst = 1000
	b.ReportAllocs()
	var sink byteCounter
	tr := trace.New(sim.NewEngine(), &sink)
	b.ResetTimer()
	start := time.Now()
	var flushing time.Duration
	for i := 0; i < b.N; i++ {
		if i > 0 && i%burst == 0 {
			pause := time.Now()
			if err := tr.Flush(); err != nil {
				b.Fatal(err)
			}
			flushing += time.Since(pause)
		}
		emitMix(tr, i)
	}
	emitting := time.Since(start) - flushing
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
	whole := time.Since(start)
	b.ReportMetric(float64(emitting.Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(sink.n)/1e6/whole.Seconds(), "MB/s")
}
