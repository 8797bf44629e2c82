package obs

import (
	"math"
	"testing"
	"time"
)

func TestHistBucketMapping(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // Observe clamps; histBucket itself maps ≤1µs to 0
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + time.Nanosecond, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + time.Nanosecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},        // 1000µs ≤ 1024µs = 2^10
		{1024 * time.Microsecond, 10}, // exact bound is inclusive
		{1025 * time.Microsecond, 11},
		{time.Second, 20},               // 1e6µs ≤ 2^20µs
		{3 * time.Hour, numHistBuckets}, // beyond the last finite bound
	}
	for _, c := range cases {
		if got := histBucket(c.d); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistBoundsMonotone(t *testing.T) {
	prev := 0.0
	for i := 0; i < numHistBuckets; i++ {
		b := histBound(i)
		if b <= prev {
			t.Fatalf("histBound(%d) = %g not above histBound(%d) = %g", i, b, i-1, prev)
		}
		prev = b
	}
	if !math.IsInf(histBound(numHistBuckets), 1) {
		t.Error("overflow bucket bound is not +Inf")
	}
	// Every bucket's bound holds the durations histBucket maps into it.
	for _, d := range []time.Duration{time.Microsecond, 37 * time.Microsecond,
		time.Millisecond, 250 * time.Millisecond, time.Minute} {
		if got := histBound(histBucket(d)); got < d.Seconds() {
			t.Errorf("bound %g of bucket for %v does not hold it", got, d)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("snapshot count = %d, want 100", s.Count)
	}
	if want := 0.1; math.Abs(s.SumSeconds-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.SumSeconds, want)
	}
	// All observations share bucket 10 (bound 1024µs), so every percentile
	// reports that conservative upper bound.
	for _, p := range []float64{s.P50, s.P95, s.P99} {
		if p != 1024e-6 {
			t.Errorf("percentile = %g, want 0.001024", p)
		}
	}
	if s.Buckets[10] != 100 {
		t.Errorf("bucket 10 = %d, want 100", s.Buckets[10])
	}

	// A negative duration is clamped to zero, landing in bucket 0.
	h.Observe(-time.Second)
	if got := h.Snapshot().Buckets[0]; got != 1 {
		t.Errorf("bucket 0 after negative observe = %d, want 1", got)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow: p50 stays in the fast bucket, p95 and
	// p99 climb into the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond) // bucket 4, bound 16µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond) // bucket 17, bound ~131ms
	}
	s := h.Snapshot()
	if s.P50 != histBound(4) {
		t.Errorf("p50 = %g, want %g", s.P50, histBound(4))
	}
	if s.P95 != histBound(17) || s.P99 != histBound(17) {
		t.Errorf("p95/p99 = %g/%g, want both %g", s.P95, s.P99, histBound(17))
	}
}

func TestHistogramOverflowQuantileStaysFinite(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Hour)
	s := h.Snapshot()
	want := 2 * histBound(numHistBuckets-1)
	if s.P50 != want || math.IsInf(s.P50, 1) {
		t.Errorf("overflow p50 = %g, want finite %g", s.P50, want)
	}
	if s.Buckets[numHistBuckets] != 1 {
		t.Error("observation did not land in the overflow bucket")
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.SumSeconds != 0 {
		t.Errorf("empty snapshot = %+v, want zeros", s)
	}
}
