// Quickstart: define a tiny workload against the DSM API and run it under
// home-based lazy release consistency at page granularity on four nodes.
//
// The workload is a parallel histogram: every node classifies its share of
// a shared input array into a shared bucket array, protecting each bucket
// region with a lock, then node 0 checks the totals.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"dsmsim"
)

const (
	items   = 4096
	buckets = 16
)

// histogram implements dsmsim.App.
type histogram struct {
	input  int // shared address of items int64 values
	counts int // shared address of buckets int64 counters
}

func (h *histogram) Info() dsmsim.AppInfo {
	return dsmsim.AppInfo{Name: "histogram", HeapBytes: items*8 + buckets*8 + 8192}
}

// Setup lays out shared data in the master image before the parallel phase.
func (h *histogram) Setup(heap *dsmsim.Heap) {
	h.input = heap.AllocPage(items * 8)
	h.counts = heap.AllocPage(buckets * 8)
	in := heap.I64s(h.input, items)
	for i := range in {
		in[i] = int64((i*2654435761 + 12345) % buckets)
	}
}

// Run executes on every simulated node.
func (h *histogram) Run(c *dsmsim.Ctx) {
	me, np := c.ID(), c.NP()
	per := items / np
	lo, hi := me*per, (me+1)*per
	if me == np-1 {
		hi = items
	}

	// Classify locally first (reads of my input share, one block at a
	// time via spans), then merge under per-bucket locks.
	local := make([]int64, buckets)
	in := c.I64sR(h.input+lo*8, hi-lo)
	for _, v := range in {
		local[v]++
	}
	c.Compute(dsmsim.Time(hi-lo) * 100) // ~100ns of work per item

	for b := 0; b < buckets; b++ {
		if local[b] == 0 {
			continue
		}
		c.Lock(b)
		c.WriteI64(h.counts+b*8, c.ReadI64(h.counts+b*8)+local[b])
		c.Unlock(b)
	}
	c.Barrier()
}

// Verify checks the final shared image.
func (h *histogram) Verify(heap *dsmsim.Heap) error {
	total := int64(0)
	for _, v := range heap.I64s(h.counts, buckets) {
		total += v
	}
	if total != items {
		return fmt.Errorf("histogram: counted %d items, want %d", total, items)
	}
	return nil
}

func main() {
	traceFile := flag.String("trace", "", "write the line trace to this file (dsmrun -project chrome turns it into Perfetto JSON)")
	flag.Parse()

	cfg := dsmsim.Config{
		Nodes:     4,
		BlockSize: 4096,
		Protocol:  dsmsim.HLRC,
		Notify:    dsmsim.Polling,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.Trace = f // the tracer buffers and flushes when the run ends
	}
	res, err := dsmsim.Start(context.Background(), cfg, &histogram{}, dsmsim.WithVerify())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("histogram on %d nodes under %s-%d finished in %v\n",
		res.Nodes, res.Protocol, res.BlockSize, res.Time)
	fmt.Printf("read faults: %d, write faults: %d, messages: %d\n",
		res.Total.ReadFaults, res.Total.WriteFaults, res.NetMsgs)
	fmt.Printf("diffs created: %d (HLRC merges concurrent writers without false-sharing ping-pong)\n",
		res.Total.DiffsCreated)
}
