package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/proto"
)

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
// run's trace plus the forked run's suffix reproduce the flat run's trace
// byte for byte by concatenation, and so does its Chrome projection. The
// critical-path profiler rides along, so its "crit" lanes — emitted at the
// end of the flat and forked runs from the full recovered path — must
// match too. The epochs forkApps lists as refused must be refused. Under -short,
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

				var flatLine bytes.Buffer
				fcfg := cfg
				fcfg.Trace = &flatLine
				fm, err := core.NewMachine(fcfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fm.RunContext(ctx, app); err != nil {
					t.Fatal(err)
				}

				for e := 1; e <= ap.barriers; e++ {
					var preLine bytes.Buffer
					pcfg := cfg
					pcfg.Trace = &preLine
					pm, err := core.NewMachine(pcfg)
					if err != nil {
						t.Fatal(err)
					}
					cp, err := pm.RunToBarrier(ctx, app, e)
					if !ap.cut(t, protocol, e, err) {
						continue
					}
					var sufLine bytes.Buffer
					scfg := cfg
					scfg.Trace = &sufLine
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
				}
			})
		}
	}
}
