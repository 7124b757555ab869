package cliflags

import (
	"strings"
	"testing"
)

// FuzzGrid: a -fault-grid string either fails to parse or yields one
// variant per non-empty NAME[:SPEC] part, each with a plan that validates
// again (a part without a SPEC is the healthy machine, plan nil), gated on
// -fork-warmup's barrier when it has one.
func FuzzGrid(f *testing.F) {
	for _, s := range []string{
		"none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11",
		"", ";", "none", "a:;b:drop=0.1", " a : drop=0.1 ;; b ", "a:drop", "a:partition=0-1@1ms:2ms;a",
		":drop=0.1", "a:b:c", "a:drop=NaN",
	} {
		f.Add(s, 6)
	}
	f.Fuzz(func(t *testing.T, spec string, warmup int) {
		grid, err := (&Shared{ForkWarmup: warmup}).Grid(spec)
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
			t.Fatalf("Grid(%q) = %d variants from %d parts", spec, len(grid), parts)
		}
		for _, v := range grid {
			if v.Name != strings.TrimSpace(v.Name) || strings.ContainsAny(v.Name, ":;") {
				t.Fatalf("Grid(%q): variant name %q keeps syntax", spec, v.Name)
			}
			if err := v.Plan.Validate(); err != nil {
				t.Fatalf("Grid(%q): variant %q does not re-validate: %v", spec, v.Name, err)
			}
			if v.Plan != nil && warmup > 0 && v.Plan.StartBarrier() != warmup {
				t.Fatalf("Grid(%q): variant %q gated on barrier %d, want %d", spec, v.Name, v.Plan.StartBarrier(), warmup)
			}
		}
	})
}
