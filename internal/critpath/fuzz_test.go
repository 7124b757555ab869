package critpath

import "testing"

// FuzzParseScale: a -whatif string either fails to parse or yields a scale
// inside the documented range whose rendering parses back to itself.
func FuzzParseScale(f *testing.F) {
	for _, s := range []string{
		"lock=0.5", "msg=0.5", "msg=0", "compute=2", "svc=100", "barrier=1e-3",
		"", "lock", "frobnicate=1", "lock=-1", "lock=101", "lock=x", "lock=NaN", "lock=Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScale(spec)
		if err != nil {
			return
		}
		if s.PPM < 0 || s.PPM > 100e6 {
			t.Fatalf("ParseScale(%q) = %d ppm, outside [0, 100]", spec, s.PPM)
		}
		back, err := ParseScale(s.String())
		if err != nil || *back != *s {
			t.Fatalf("ParseScale(%q) renders as %q, which parses to %+v, %v", spec, s, back, err)
		}
	})
}
