package telemetry

import "math/bits"

// histBuckets is the number of log2 buckets: bucket i holds observations
// whose value has bit length i (i.e. values in [2^(i-1), 2^i)), which at
// nanosecond resolution spans sub-nanosecond to ~584 years in 64 buckets.
const histBuckets = 64

// Histogram is a fixed-size log2-bucketed latency histogram. Count, Sum
// and Max are exact; quantiles are bucket upper bounds, accurate to a
// factor of two — the paper-grade answer to "is p99 microseconds or
// milliseconds" without storing samples. The zero value is ready to use.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Observe folds one value (nanoseconds) into the histogram.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(v)%histBuckets]++
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket holding the value of nearest rank (rank),
// clamped to the exact Max. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	r := rank(q, h.Count)
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= r {
			return min(uint64(1)<<uint(i)-1, h.Max) // largest value with bit length i
		}
	}
	return h.Max
}
