package metrics

import (
	"fmt"
	"math"
	"strings"
)

// histBuckets is the number of logarithmic buckets: floor(log2(v)) of any
// positive value representable in an int64-sized latency fits in [0, 63].
const histBuckets = 64

// Histogram accumulates values into logarithmic buckets (powers of two) for
// cheap latency-distribution tracking, and reports percentiles. The buckets
// are a fixed array so Add is allocation-free and cache-friendly on the
// simulator's per-read hot path.
type Histogram struct {
	buckets [histBuckets]int64 // floor(log2(v)) -> count
	count   int64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.Reset()
	return h
}

// Add records one value (values < 1 land in bucket 0). The bucket is
// floor(log2 v), read off the binary exponent (v = f·2^e, f in [0.5, 1)): exact
// where math.Log2 rounds 2^k−1 up to k for k ≥ 49, and no logarithm taken.
func (h *Histogram) Add(v float64) {
	b := 0
	if v >= 1 {
		_, e := math.Frexp(v)
		b = min(e-1, histBuckets-1)
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the extreme recorded values (0 if empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 if empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing it. Bucket granularity is a factor
// of two, which suffices for tail-latency shape comparisons.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	threshold := int64(math.Ceil(p / 100 * float64(h.count)))
	var seen int64
	for k := 0; k < histBuckets; k++ {
		if h.buckets[k] == 0 {
			continue
		}
		seen += h.buckets[k]
		if seen >= threshold {
			upper := math.Pow(2, float64(k+1))
			if k == histBuckets-1 {
				// The last bucket clamps overflow values, so its power-
				// of-two edge is not an upper bound for them; max is.
				upper = h.max
			}
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// BucketCount is one histogram bucket: the count of values in
// (Upper/2, Upper] (bucket 0 additionally holds values below 1).
type BucketCount struct {
	Upper float64
	Count int64
}

// HistSnapshot is a point-in-time copy of a histogram's distribution, the
// raw material for Prometheus histogram exposition (whose cumulative `le`
// buckets a renderer derives by running-summing Buckets).
type HistSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot copies the histogram's distribution: the non-empty buckets in
// ascending order, each with its per-bucket (non-cumulative) count and
// power-of-two upper edge. Empty buckets are omitted — a cumulative-bucket
// renderer loses nothing by their absence. An empty histogram snapshots to
// no buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum}
	for k := 0; k < histBuckets; k++ {
		if h.buckets[k] > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Upper: math.Pow(2, float64(k+1)), Count: h.buckets[k]})
		}
	}
	return s
}

// Reset discards every recorded value, returning the histogram to its
// freshly-constructed state (used at measurement start, after warmup).
func (h *Histogram) Reset() {
	h.buckets = [histBuckets]int64{}
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	for k, c := range o.buckets {
		h.buckets[k] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50<=%.0f p90<=%.0f p99<=%.0f max=%.0f",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.max)
	return b.String()
}
