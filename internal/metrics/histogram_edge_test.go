package metrics

import (
	"math"
	"testing"
)

// TestHistogramEmptyPercentiles: an empty histogram must report zero for
// every summary statistic rather than Inf/NaN from its sentinel min/max.
func TestHistogramEmptyPercentiles(t *testing.T) {
	h := NewHistogram()
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Errorf("empty summary = mean %v min %v max %v count %d, want all zero",
			h.Mean(), h.Min(), h.Max(), h.Count())
	}
	if s := h.String(); s != "empty" {
		t.Errorf("empty String() = %q", s)
	}
}

// TestHistogramSingleSample: with one value every percentile is that value
// (the bucket upper edge clips to max, which equals the sample).
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Add(37)
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 37 {
			t.Errorf("Percentile(%v) = %v, want 37", p, got)
		}
	}
	if h.Min() != 37 || h.Max() != 37 || h.Mean() != 37 || h.Count() != 1 {
		t.Errorf("single-sample summary = min %v max %v mean %v count %d",
			h.Min(), h.Max(), h.Mean(), h.Count())
	}
}

// TestHistogramBucketBoundaries: exact powers of two land in the bucket they
// open (floor(log2(2^k)) = k), values just below stay in the bucket beneath,
// and the reported percentile bound is never below the true value.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v     float64
		bound float64 // expected Percentile(100) upper bound (clipped to max)
	}{
		{1, 1}, // smallest bucket-opening value
		{2, 2}, // boundary: bucket 1 opens, upper edge 4 clips to max 2
		{math.Nextafter(2, 0), math.Nextafter(2, 0)}, // just below the boundary
		{4, 4},
		{1024, 1024},
		{0.25, 0.25}, // <1 lands in bucket 0
		{0, 0},       // zero is legal input, bucket 0
	}
	for _, c := range cases {
		h := NewHistogram()
		h.Add(c.v)
		if got := h.Percentile(100); got != c.bound {
			t.Errorf("Add(%v): Percentile(100) = %v, want %v", c.v, got, c.bound)
		}
		if got := h.Percentile(50); got < c.v {
			t.Errorf("Add(%v): Percentile(50) = %v below the recorded value", c.v, got)
		}
	}

	// Two samples straddling a boundary: p50 bounds the lower one by its
	// bucket's upper edge, p100 bounds the higher.
	h := NewHistogram()
	h.Add(2) // bucket 1 (edge 4)
	h.Add(5) // bucket 2 (edge 8)
	if got := h.Percentile(50); got != 4 {
		t.Errorf("straddle p50 = %v, want 4 (bucket-1 upper edge)", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Errorf("straddle p100 = %v, want 5 (clipped to max)", got)
	}
}

// TestHistogramBucketIsFloorLog2: Add's bucket is the one floor(math.Log2(v))
// picked before it read the exponent instead — for every integer below 2^24,
// and for 2^k−1, 2^k and 2^k+1 up to 2^48 — and the exact floor at 2^k−1 for
// k ≥ 49, where Log2 rounds up to k.
func TestHistogramBucketIsFloorLog2(t *testing.T) {
	h := NewHistogram()
	check := func(v float64, want int) {
		if h.Add(v); h.buckets[want] != 1 {
			t.Fatalf("Add(%v) missed bucket %d: %v", v, want, h.buckets)
		}
		h.buckets[want] = 0
	}
	logFloor := func(v float64) int { return int(math.Floor(math.Log2(v))) }
	for v := 1; v < 1<<24; v++ {
		check(float64(v), logFloor(float64(v)))
	}
	for k := 25; k <= 48; k++ {
		p := uint64(1) << k
		for _, v := range []float64{float64(p - 1), float64(p), float64(p + 1)} {
			check(v, logFloor(v))
		}
	}
	for k := 49; k < histBuckets; k++ {
		p := uint64(1) << k
		if v := float64(p - 1); v < float64(p) { // up to 2^53, where 2^k−1 is still a float64
			check(v, k-1)
		}
		check(float64(p), k)
	}
}

// TestHistogramOverflowBucketClamp: values beyond the last bucket's range
// clamp into the final bucket instead of indexing out of bounds.
func TestHistogramOverflowBucketClamp(t *testing.T) {
	h := NewHistogram()
	huge := math.Pow(2, 80)
	h.Add(huge)
	if got := h.Percentile(99); got != huge {
		t.Errorf("overflow p99 = %v, want %v (clipped to max)", got, huge)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d, want 1", h.Count())
	}
}
