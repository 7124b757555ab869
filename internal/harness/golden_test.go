package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/sweep"
)

// goldenExperiments holds the SHA-256 (first 16 hex digits) of what each
// experiment renders at Small size on 4 nodes, recorded at commit d0e17bd —
// before the registry became declarations. A digest that is meant to move
// is re-recorded from the failure message.
var goldenExperiments = map[string]string{
	"table1": "0a726cf8c3fbbf06", "fig1": "72eba07823c46da4", "table2": "75483a32cf5bec9c",
	"table3": "a1b519d677ae7961", "table4": "2f5da9f0636c6e77", "table5": "75ef9e36bcbf065c",
	"table6": "6b8f5dda6c4dc87f", "table7": "240fb41156a30dcc", "table8": "f93ecd18f49e01d9",
	"table9": "85ad58d3c4b302d5", "table10": "27fb743414a7b192", "table11": "fddcd4b5af16e88d",
	"table12": "f91bc45933f95ff0", "table13": "017054c089124007", "table14": "7cfb28d4d7642f34",
	"table15": "63c07d0bfc75644e", "table16": "b8735c77aa56ec26", "table17": "fa4ad58e77c1cfe1",
	"fig2": "a138c5cadc795c86", "memory": "4263bb88fb644358", "scaling": "a6be4155be6f5ed2",
	"software": "45c9e3f2b4c57256", "delayed": "0f1dc0cfb0857785", "fourway": "5cafcfa35a645ac8",
	"bigblocks": "7bdf2b8f3f88b3d5", "breakdown": "26a67c859ee8dcfb", "phases": "4fda47dfb8880206",
	"degradation": "b3ee326ab72df085", "sharing": "d85f65b38fb0558e", "critpath": "abd123eaad8e1d44",
}

// TestGoldenExperiments renders every experiment the way dsmrun -exp all
// does — one sweep of every declared point, then each table from its own
// points' results — at each worker count, and compares each table's bytes
// with the recorded digest.
func TestGoldenExperiments(t *testing.T) {
	exps := Experiments()
	if len(goldenExperiments) != len(exps) {
		t.Errorf("%d digests for %d experiments", len(goldenExperiments), len(exps))
	}
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		for i, r := range sweepFor(t, sweep.Options{Size: apps.Small, Workers: workers}, &out, exps...) {
			e := exps[i]
			out.Reset()
			if err := e.Run(r); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))[:16]
			if got != goldenExperiments[e.Name] {
				t.Errorf("workers %d: %q: %q, // recorded %q", workers, e.Name, got, goldenExperiments[e.Name])
			}
		}
	}
}
