package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.P50() != 0 || h.P90() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram must report zero quantiles")
	}
	if h.Summary() != "n=0" {
		t.Fatalf("Summary = %q", h.Summary())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(700)
	// 700 lands in bucket [512, 1023]; every quantile must stay inside.
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < 512 || v > 1023 {
			t.Fatalf("Quantile(%v) = %d, outside the sample's bucket [512,1023]", q, v)
		}
	}
}

func TestHistogramUniformQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Log-scale buckets with in-bucket interpolation: quantiles of a
	// uniform distribution land within ~10% of the exact value.
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}} {
		got := float64(h.Quantile(tc.q))
		if math.Abs(got-tc.want) > tc.want*0.10 {
			t.Errorf("Quantile(%v) = %v, want %v ±10%%", tc.q, got, tc.want)
		}
	}
	if h.Count != 1000 || h.Sum != 500500 {
		t.Fatalf("Count/Sum = %d/%d", h.Count, h.Sum)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for _, v := range []int64{3, 17, 1500, 1500, 80000, 2} {
		h.Observe(v)
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %d after %d", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramNonPositiveSamples(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	if h.Count != 2 || h.Sum != 0 || h.Buckets[0] != 2 {
		t.Fatalf("non-positive samples mis-bucketed: %+v", h)
	}
	if h.P99() != 0 {
		t.Fatalf("P99 = %d, want 0", h.P99())
	}
}

func TestHistogramMergeEqualsConcat(t *testing.T) {
	var a, b, both Histogram
	for v := int64(1); v <= 100; v++ {
		a.Observe(v * 7)
		both.Observe(v * 7)
	}
	for v := int64(1); v <= 50; v++ {
		b.Observe(v * 1000)
		both.Observe(v * 1000)
	}
	a.Merge(&b)
	if a != both {
		t.Fatal("Merge differs from observing the concatenated samples")
	}
}

func TestHistogramHugeSample(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	if v := h.P50(); v < math.MaxInt64/2 {
		t.Fatalf("P50 of a MaxInt64 sample = %d", v)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(1500) // 1.5µs
	}
	s := h.Summary()
	if !strings.Contains(s, "p50=") || !strings.Contains(s, "n=10") {
		t.Fatalf("Summary = %q", s)
	}
}

// TestHistogramMergeEmpty: merging an empty histogram in either direction
// is the identity — the sampler merges partial histograms constantly, and
// intervals with no events must not move any quantile.
func TestHistogramMergeEmpty(t *testing.T) {
	var full, empty Histogram
	for _, v := range []int64{100, 200, 400, 800} {
		full.Observe(v)
	}
	before := full
	full.Merge(&empty)
	if full != before {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	var dst Histogram
	dst.Merge(&full)
	if dst != full {
		t.Fatal("merging into an empty histogram did not copy it")
	}
	if empty.Count != 0 || empty.Sum != 0 {
		t.Fatal("empty histogram mutated by being merged")
	}
}

// TestHistogramSingleSampleQuantiles: with exactly one sample, every
// quantile must land inside that sample's bucket, across the whole range
// of bucket sizes (including bucket 1's lo == hi degenerate bounds).
func TestHistogramSingleSampleQuantiles(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 1000, 1 << 40, math.MaxInt64} {
		var h Histogram
		h.Observe(v)
		lo, hi := bucketBounds(bucketOf(v))
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if got < lo || got > hi {
				t.Errorf("sample %d: Quantile(%v) = %d outside bucket [%d, %d]",
					v, q, got, lo, hi)
			}
		}
	}
}

// TestHistogramOverflowBucket: values at and around the top bucket's lower
// bound land in bucket 63, whose upper bound saturates at MaxInt64 instead
// of overflowing to a negative bound.
func TestHistogramOverflowBucket(t *testing.T) {
	top := int64(1) << 62
	var h Histogram
	for _, v := range []int64{top, top + 1, math.MaxInt64} {
		h.Observe(v)
	}
	if got := h.Buckets[63]; got != 3 {
		t.Fatalf("bucket 63 holds %d samples, want 3", got)
	}
	lo, hi := bucketBounds(63)
	if lo != top || hi != math.MaxInt64 {
		t.Fatalf("bucket 63 bounds [%d, %d], want [%d, %d]", lo, hi, top, int64(math.MaxInt64))
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got < lo {
			t.Errorf("Quantile(%v) = %d below the overflow bucket's bound %d", q, got, lo)
		}
	}
	if h.Sum != top+(top+1)+math.MaxInt64 {
		// Sum may wrap for adversarial inputs; real virtual-time samples
		// cannot reach it, but the wrap must at least be deterministic.
		t.Logf("Sum wrapped to %d (expected for MaxInt64-scale samples)", h.Sum)
	}
}
