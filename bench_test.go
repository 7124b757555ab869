// Benchmarks regenerating every table and figure of the paper. The
// simulator's own host cost, layer by layer, is measured by the repository
// benchmark in bench/.
//
// BenchmarkExperiment runs each harness experiment end to end as a
// sub-benchmark named after it (dsmbench -list). By default the reduced
// problem sizes are used so `go test -bench=.` finishes quickly; pass
// -dsm.paper to sweep the paper's Table 1 sizes (minutes; -dsm.show prints
// the tables):
//
//	go test -bench='Experiment/fig1$' -benchtime=1x -dsm.paper
package dsmsim_test

import (
	"flag"
	"io"
	"os"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/harness"
)

var (
	paperSize  = flag.Bool("dsm.paper", false, "run benchmarks at the paper's problem sizes")
	benchNodes = flag.Int("dsm.nodes", 16, "cluster size for benchmarks")
	showTables = flag.Bool("dsm.show", false, "print the regenerated tables to stdout")
)

func benchOpts() harness.Options {
	opts := harness.Options{Nodes: *benchNodes, Out: io.Discard}
	opts.Size = apps.Small
	if *paperSize {
		opts.Size = apps.Paper
	}
	if *showTables {
		opts.Out = os.Stdout
	}
	return opts
}

// BenchmarkExperiment regenerates every harness experiment, one
// sub-benchmark per registry entry: a fresh runner and one render per
// iteration.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.New(benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Run(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
