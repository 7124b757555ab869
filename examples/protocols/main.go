// Protocols: run one of the paper's bundled applications across the full
// protocol × granularity matrix and print a miniature Figure 1 — speedups
// over the one-node sequential baseline.
//
// The matrix runs through dsmsim.Sweep, which fans the independent
// simulations out over every CPU; because each run is a deterministic
// virtual-time simulation, the parallel sweep's results (and output order)
// are identical to running the matrix serially.
//
// Usage:
//
//	go run ./examples/protocols            # LU at small size
//	go run ./examples/protocols raytrace   # any bundled application
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"dsmsim"
)

func main() {
	app := "lu"
	if len(os.Args) > 1 {
		app = os.Args[1]
	}

	// The whole matrix — sequential baseline plus protocols ×
	// granularities — in one parallel sweep.
	start := time.Now()
	res, err := dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Apps:  []string{app},
		Nodes: 8,
		Size:  dsmsim.Small,
	}, dsmsim.WithShareProfile())
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	runs := 1 + len(dsmsim.Protocols)*len(dsmsim.Granularities)
	fmt.Printf("%s: sequential time %v; speedups on 8 nodes:\n\n", app, res.Baseline(app))

	fmt.Printf("%-7s", "proto")
	for _, g := range dsmsim.Granularities {
		fmt.Printf(" %7dB", g)
	}
	fmt.Println()
	for _, proto := range dsmsim.Protocols {
		fmt.Printf("%-7s", proto)
		for _, g := range dsmsim.Granularities {
			run := res.Get(app, proto, g, dsmsim.Polling)
			fmt.Printf(" %8.2f", float64(res.Baseline(app))/float64(run.Time))
		}
		fmt.Println()
	}
	// The sweep carried the sharing-pattern profiler: show where each
	// protocol's coherence traffic concentrated at page granularity.
	fmt.Printf("\nhottest heap regions at 4096B (faults: true/false sharing of misses):\n")
	for _, proto := range dsmsim.Protocols {
		run := res.Get(app, proto, 4096, dsmsim.Polling)
		if run == nil || run.Sharing == nil {
			continue
		}
		fmt.Printf("%-7s", proto)
		for _, rg := range run.Sharing.Top(3) {
			fmt.Printf("  %s %d (%d/%d, %s)", rg.Name, rg.Faults(),
				rg.TrueFaults, rg.FalseFaults, rg.TopClass())
		}
		fmt.Println()
	}

	fmt.Printf("\nsimulated %d runs in %v wall-clock (%.1f runs/sec)\n",
		runs, elapsed.Round(time.Millisecond), float64(runs)/elapsed.Seconds())
	fmt.Println("\n(Small problem sizes: absolute speedups are modest; run")
	fmt.Println(" cmd/dsmrun -exp fig1 -size paper for the paper-scale sweep.)")
}
