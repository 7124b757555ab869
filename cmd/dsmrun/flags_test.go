package main

import (
	"strings"
	"testing"

	"dsmsim/internal/sim"
)

// FuzzGrid: a -fault-grid string either fails to parse or yields one
// variant per non-empty NAME[:SPEC] part, each with a plan that validates
// again (a part without a SPEC is the healthy machine, plan nil) and whose
// straggler clauses, once armed, only ever slow a node down.
func FuzzGrid(f *testing.F) {
	for _, s := range []string{
		"none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11",
		"", ";", "none", "a:;b:drop=0.1", " a : drop=0.1 ;; b ", "a:drop", "a:partition=0-1@1ms:2ms;a",
		":drop=0.1", "a:b:c", "a:drop=NaN",
		"none;slow:straggler=0x4@1ms:,start=6;lossy:drop=0.03,straggler=2x3,straggler=1x2@0:5ms",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		grid, err := parseGrid(spec)
		if err != nil {
			return
		}
		parts := 0
		for _, p := range strings.Split(spec, ";") {
			if strings.TrimSpace(p) != "" {
				parts++
			}
		}
		if len(grid) != parts {
			t.Fatalf("parseGrid(%q) = %d variants from %d parts", spec, len(grid), parts)
		}
		for _, v := range grid {
			if v.Name != strings.TrimSpace(v.Name) || strings.ContainsAny(v.Name, ":;") {
				t.Fatalf("parseGrid(%q): variant name %q keeps syntax", spec, v.Name)
			}
			if err := v.Plan.Validate(); err != nil {
				t.Fatalf("parseGrid(%q): variant %q does not re-validate: %v", spec, v.Name, err)
			}
			const nodes = 8
			if v.Plan.ValidateFor(nodes) != nil {
				continue
			}
			in := v.Plan.Compile(nodes)
			in.Activate()
			for node := 0; node < nodes; node++ {
				for _, now := range []sim.Time{0, sim.Millisecond, 10 * sim.Millisecond} {
					if d := in.Dilation(node, now); !(d >= 1) {
						t.Fatalf("parseGrid(%q): variant %q dilates node %d at %v by %v, not a slowdown", spec, v.Name, node, now, d)
					}
				}
			}
		}
	})
}
