package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/proto"
)

// jsonRecords parses a Chrome trace JSON array and returns its event
// records minus the per-track metadata ("ph":"M"), which every stream
// re-emits lazily as tracks first appear — a forked suffix names its
// tracks again, so metadata is presentation, not content.
func jsonRecords(t *testing.T, raw []byte) []string {
	t.Helper()
	var evs []json.RawMessage
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, raw)
	}
	var out []string
	for _, e := range evs {
		if bytes.Contains(e, []byte(`"ph":"M"`)) {
			continue
		}
		out = append(out, string(e))
	}
	return out
}

// firstDiff returns the line number and content of the first differing
// line between two line-format traces, for failure messages.
func firstDiff(a, b []byte) (int, string, string) {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return i + 1, string(al[i]), string(bl[i])
		}
	}
	return len(al), "(end)", "(end)"
}

// TestForkTraceByteIdentical cuts every forkApps entry (checkpoint_test.go)
// at every barrier epoch under every protocol and checks that the prefix
// run's trace stream plus the forked run's suffix stream reproduce the flat
// run's trace: the line format byte-for-byte by concatenation, the Chrome
// JSON format record-for-record (each stream is its own JSON array, so the
// arrays are compared element-wise after dropping track metadata). The
// critical-path profiler rides along, so its "crit" lanes — emitted at the
// end of the flat and forked runs from the full recovered path — must match
// too. The epochs forkApps lists as refused must be refused. Under -short,
// as in the race-detector run, barnes, ocean and volrend — four fifths of
// this test's cost there — are left to TestForkDigestEquivalence.
func TestForkTraceByteIdentical(t *testing.T) {
	for _, ap := range forkApps {
		base, _, _ := strings.Cut(ap.name, "-")
		if testing.Short() && (base == "barnes" || base == "ocean" || base == "volrend") {
			continue
		}
		for _, protocol := range proto.Names() {
			ap, protocol := ap, protocol
			t.Run(ap.name+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				app := newForkApp(t, ap.name)
				cfg := core.Config{Nodes: 8, BlockSize: 1024, Protocol: protocol, CritPath: true}

				var flatLine, flatJSON bytes.Buffer
				fcfg := cfg
				fcfg.Trace, fcfg.TraceJSON = &flatLine, &flatJSON
				fm, err := core.NewMachine(fcfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fm.RunContext(ctx, app); err != nil {
					t.Fatal(err)
				}
				flatRecs := jsonRecords(t, flatJSON.Bytes())

				for e := 1; e <= ap.barriers; e++ {
					var preLine, preJSON bytes.Buffer
					pcfg := cfg
					pcfg.Trace, pcfg.TraceJSON = &preLine, &preJSON
					pm, err := core.NewMachine(pcfg)
					if err != nil {
						t.Fatal(err)
					}
					cp, err := pm.RunToBarrier(ctx, app, e)
					if !ap.cut(t, protocol, e, err) {
						continue
					}
					var sufLine, sufJSON bytes.Buffer
					scfg := cfg
					scfg.Trace, scfg.TraceJSON = &sufLine, &sufJSON
					sm, err := core.NewMachine(scfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := sm.RunFromCheckpoint(ctx, cp, app); err != nil {
						t.Fatalf("RunFromCheckpoint(%d): %v", e, err)
					}

					joined := append(append([]byte(nil), preLine.Bytes()...), sufLine.Bytes()...)
					if !bytes.Equal(joined, flatLine.Bytes()) {
						n, f, j := firstDiff(flatLine.Bytes(), joined)
						t.Fatalf("epoch %d: line trace diverges at line %d:\nflat: %s\nfork: %s", e, n, f, j)
					}

					recs := append(jsonRecords(t, preJSON.Bytes()), jsonRecords(t, sufJSON.Bytes())...)
					if len(recs) != len(flatRecs) {
						t.Fatalf("epoch %d: JSON trace has %d records, flat %d", e, len(recs), len(flatRecs))
					}
					for i := range recs {
						if recs[i] != flatRecs[i] {
							t.Fatalf("epoch %d: JSON record %d diverges:\nflat: %s\nfork: %s",
								e, i, flatRecs[i], recs[i])
						}
					}
				}
			})
		}
	}
}
