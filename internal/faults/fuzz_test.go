package faults

import (
	"reflect"
	"testing"
)

// checkCompiled exercises a validated plan the way a run does: compiling
// and drawing never panics, jitter stays inside its bound and dilation is
// a slowdown (overlapping windows multiply, so it may grow without bound,
// but never below 1 and never NaN).
func checkCompiled(t *testing.T, p *Plan) {
	const nodes = 64
	if p.ValidateFor(nodes) != nil {
		return
	}
	in := p.Compile(nodes)
	in.Activate()
	for i := 0; i < 4; i++ {
		in.DropDraw(i, (i+1)%nodes)
		in.DupDraw()
		in.Cut(i, (i+1)%nodes, 1000)
		if j := in.JitterDraw(); j < 0 || j > in.MaxJitter() {
			t.Fatalf("jitter draw %v outside [0, %v]", j, in.MaxJitter())
		}
		if d := in.Dilation(i, 1000); !(d >= 1) {
			t.Fatalf("dilation %v is not a slowdown", d)
		}
	}
}

// checkParsed: spec either fails to parse or yields a plan that validates
// again, runs, and round-trips through String: Parse reads String's
// spelling back to an equal plan, which String spells the same way.
func checkParsed(t *testing.T, spec string) {
	p, err := Parse(spec)
	if err != nil {
		return
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Parse(%q) returned a plan that does not re-validate: %v", spec, err)
	}
	checkCompiled(t, p)
	s := p.String()
	q, err := Parse(s)
	if err != nil || !reflect.DeepEqual(p, q) {
		t.Fatalf("Parse(%q).String() = %q, which parses to %+v (%v), want %+v", spec, s, q, err, p)
	}
	if again := q.String(); again != s {
		t.Fatalf("Parse(%q).String() = %q, then %q", spec, s, again)
	}
}

// FuzzParse: a -faults string either fails to parse or yields a plan that
// validates again and runs — its straggler windows included, so dilation
// is a slowdown. Seeds are the specs the Makefile, the CI table and the
// tests use, plus the malformed ones the unit tests list, then straggler
// clauses: windowed, open-ended, repeated, and beside wire clauses.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "drop=0.01,seed=1", "drop=0.02,seed=3", "drop=0.03,seed=5", "jitter=30us,dup=0.01,seed=11",
		"drop=0.01, dup=0.005, jitter=5us, seed=42, partition=0-2@1ms:2ms, linkdrop=1-3:0.2, rto=500us",
		"start=6", "jitter=1500", "drop", "drop=x", "drop=1.5", "drop=NaN", "nonsense=1",
		"partition=0-1", "partition=0@1:2", "linkdrop=0-1", "jitter=zzz", "jitter=9223372036854775807",
		"straggler=0x4@0:20ms", "straggler=3x2.5", "straggler=3x2.0@0:10ms, straggler=3x1.5",
		"drop=0.02,jitter=5us,straggler=2x3@0:50ms,start=6", "straggler=3x0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(checkParsed)
}

// FuzzParseStragglers: a spec of straggler clauses either fails to parse or
// yields a plan whose dilation is a slowdown. Seeds are windowed,
// open-ended and repeated clauses, the malformed ones TestParseStragglers
// lists, and a straggler beside wire clauses.
func FuzzParseStragglers(f *testing.F) {
	for _, s := range []string{
		"straggler=", "straggler=3x2.5", "straggler=0x4@10ms:20ms", "straggler=3x2.0@1ms:2ms, straggler=1x1.5",
		"straggler=3x2.0@0:10ms,straggler=5x1.5", "straggler=3", "straggler=x2", "straggler=ax2",
		"straggler=3xz", "straggler=3x2@oops", "straggler=3xNaN", "straggler=3xInf", "straggler=3x0.5",
		"straggler=-1x2", "straggler=2x3@5ms:", "drop=0.02,jitter=5us,straggler=2x3@0:50ms,start=6",
	} {
		f.Add(s)
	}
	f.Fuzz(checkParsed)
}
