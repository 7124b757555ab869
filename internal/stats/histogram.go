package stats

import (
	"fmt"
	"math"
	"math/bits"

	"dsmsim/internal/sim"
)

// HistBuckets is the number of fixed log-scale buckets in a Histogram.
// Bucket 0 holds non-positive samples; bucket i (i ≥ 1) holds samples in
// [2^(i-1), 2^i), so the full int64 range is covered.
const HistBuckets = 64

// Histogram accumulates a latency distribution in fixed log₂-scale
// buckets. It is sized for virtual-time samples in nanoseconds: 64 buckets
// span the whole int64 range, and quantiles interpolate linearly inside a
// bucket, which keeps the p50/p90/p99 error within the bucket's factor of
// two (much better in practice for smooth distributions).
//
// Every field is additive, so Merge — and therefore Node.Add — is a plain
// field-wise sum and the zero value is ready to use. Like the rest of the
// stats package it is written only from engine context and needs no locks.
type Histogram struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// Observe records one sample. Non-positive samples land in bucket 0 and do
// not contribute to Sum.
func (h *Histogram) Observe(v int64) {
	h.Count++
	if v > 0 {
		h.Sum += v
	}
	h.Buckets[bucketOf(v)]++
}

// ObserveTime records one virtual-time sample.
func (h *Histogram) ObserveTime(d sim.Time) { h.Observe(int64(d)) }

// Merge accumulates other into h.
func (h *Histogram) Merge(other *Histogram) {
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// bucketOf returns the bucket index for sample v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns the inclusive sample range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << uint(i-1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<uint(i) - 1
}

// Quantile returns the approximate q-quantile (q in [0, 1]): the bucket
// holding the q·Count-th sample, linearly interpolated between its bounds.
// An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			// frac is in [0, 1], but float64 cannot represent the top
			// bucket's width exactly: frac*float64(hi-lo) can round up
			// past the width and overflow lo's addition. Clamp to hi.
			off := int64(frac * float64(hi-lo))
			if off < 0 || off > hi-lo {
				return hi
			}
			return lo + off
		}
		cum += float64(c)
	}
	// Floating-point slack walked past the last occupied bucket.
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if h.Buckets[i] > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}

// P50 returns the approximate median.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P90 returns the approximate 90th percentile.
func (h *Histogram) P90() int64 { return h.Quantile(0.90) }

// P99 returns the approximate 99th percentile.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Summary renders the quantiles in human units for reports:
// "p50=12.3µs p90=45.6µs p99=101.2µs n=204".
func (h *Histogram) Summary() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50=%v p90=%v p99=%v n=%d",
		sim.Time(h.P50()), sim.Time(h.P90()), sim.Time(h.P99()), h.Count)
}
