package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expectedSeed is the seed expected.json was recorded at.
const expectedSeed = 1

// expectedPath is where -record writes, relative to the module root.
const expectedPath = "bench/expected.json"

// expectedJSON holds every run's simulated fingerprint at expectedSeed,
// per workload and run id, as recorded by `go run ./bench -record` at the
// commit that last changed the model on purpose.
//
//go:embed expected.json
var expectedJSON []byte

// driftRuns counts the runs of iteration 0 whose fingerprint differs from
// the recorded one. Drift is reported, not counted as failure: a
// deliberate model fix shows without being blocked. Seed-dependent
// workloads are only comparable at the recorded seed.
func (m *measurement) driftRuns(seed uint64) int {
	if m.w.SeedDependent && seed != expectedSeed {
		return 0
	}
	var expected map[string]map[string]fingerprint
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return len(m.ref.ids)
	}
	want := expected[m.w.Name]
	drift := 0
	for i, id := range m.ref.ids {
		if fp, ok := want[id]; !ok || fp != m.ref.prints[i] {
			drift++
		}
	}
	return drift
}

// record runs every workload once at expectedSeed and rewrites
// expected.json with the fingerprints it saw.
func record(ctx context.Context) error {
	// One run per line, in run order, so a model change diffs as the
	// runs it moved.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	ws := workloads()
	for wi, w := range ws {
		it := w.build(expectedSeed).iterate(ctx, nil, -1, nil)
		fmt.Fprintf(&buf, " %q: {\n", w.Name)
		for i, id := range it.ids {
			if it.errs[i] != nil {
				return fmt.Errorf("%s: %s: %w", w.Name, id, it.errs[i])
			}
			fp, err := json.Marshal(it.prints[i])
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "  %q: %s%s\n", id, fp, comma(i, len(it.ids)))
		}
		fmt.Fprintf(&buf, " }%s\n", comma(wi, len(ws)))
	}
	buf.WriteString("}\n")
	return os.WriteFile(expectedPath, buf.Bytes(), 0o644)
}

// comma separates element i of n from the next one.
func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
