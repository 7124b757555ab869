// Benchmarks regenerating every table and figure of the paper. The
// simulator's own host cost, layer by layer, is measured by the repository
// benchmark in bench/.
//
// BenchmarkExperiment runs each harness experiment end to end as a
// sub-benchmark named after it (dsmrun -list). By default the reduced
// problem sizes are used so `go test -bench=.` finishes quickly; pass
// -dsm.paper to sweep the paper's Table 1 sizes (minutes; -dsm.show prints
// the tables):
//
//	go test -bench='Experiment/fig1$' -benchtime=1x -dsm.paper
package dsmsim_test

import (
	"context"
	"flag"
	"io"
	"os"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/harness"
	"dsmsim/internal/sweep"
)

var (
	paperSize  = flag.Bool("dsm.paper", false, "run benchmarks at the paper's problem sizes")
	benchNodes = flag.Int("dsm.nodes", 16, "cluster size for benchmarks")
	showTables = flag.Bool("dsm.show", false, "print the regenerated tables to stdout")
)

// BenchmarkExperiment regenerates every harness experiment, one
// sub-benchmark per registry entry, the way dsmrun -exp NAME -parallel 1
// does: per iteration, one sweep runs the experiment's declared points
// serially, then the table renders from the results.
func BenchmarkExperiment(b *testing.B) {
	size := apps.Small
	if *paperSize {
		size = apps.Paper
	}
	o := sweep.Options{Size: size, Workers: 1}
	var out io.Writer = io.Discard
	if *showTables {
		out = os.Stdout
	}
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			keys := harness.PointsFor(o, *benchNodes, []harness.Experiment{e})
			for i := 0; i < b.N; i++ {
				recs, _, err := sweep.Run(context.Background(), o, keys)
				if err == nil {
					err = harness.Render(out, recs, []harness.Experiment{e})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
