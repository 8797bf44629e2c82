package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histograms complement the registry's accumulated span timers
// with *distributions*: a multi-minute HIV learn whose p50 coverage batch
// is 2ms but whose p99 is 4s has a problem the mean hides. Every span
// kind gets one, fed as its spans end. Buckets are logarithmic — powers
// of two of one microsecond — so one fixed-size atomic array spans
// clock-tick noise to hours, and recording is a shift, two adds and no
// locks.

// numHistBuckets is the number of finite buckets: bucket i counts
// observations with d ≤ 1µs·2^i, so the top finite bound is ~2.4 hours.
// One extra overflow bucket catches everything beyond.
const numHistBuckets = 33

// histBucket maps a duration onto its bucket index (the smallest bucket
// whose upper bound holds it); durations past the last finite bound land
// in the overflow bucket numHistBuckets.
func histBucket(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	us := (uint64(d) + 999) / 1000 // ceil µs, so bounds are inclusive
	i := bits.Len64(us - 1)        // ceil(log2(us))
	if i >= numHistBuckets {
		return numHistBuckets
	}
	return i
}

// histBound returns the upper bound of bucket i in seconds; the overflow
// bucket reports +Inf.
func histBound(i int) float64 {
	if i >= numHistBuckets {
		return math.Inf(1)
	}
	return 1e-6 * float64(uint64(1)<<uint(i))
}

// Histogram is a lock-free log-bucketed duration histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [numHistBuckets + 1]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[histBucket(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures the histogram's current state. Concurrent writers may
// land between the bucket reads; the stat is internally consistent enough
// for reporting (count is recomputed from the bucket sum).
func (h *Histogram) Snapshot() HistStat {
	var s HistStat
	s.Buckets = make([]int64, numHistBuckets+1)
	var total int64
	for i := range h.buckets {
		v := h.buckets[i].Load()
		s.Buckets[i] = v
		total += v
	}
	s.Count = total
	s.SumSeconds = time.Duration(h.sumNS.Load()).Seconds()
	s.P50 = bucketQuantile(s.Buckets, total, 0.50)
	s.P95 = bucketQuantile(s.Buckets, total, 0.95)
	s.P99 = bucketQuantile(s.Buckets, total, 0.99)
	return s
}

// bucketQuantile returns the upper bound (seconds) of the bucket holding
// the q-quantile observation — a conservative estimate: the true value is
// at most this. Overflow-bucket quantiles report the last finite bound
// ×2, so they stay finite and diffable.
func bucketQuantile(buckets []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, v := range buckets {
		cum += v
		if cum >= rank {
			if i >= numHistBuckets {
				return 2 * histBound(numHistBuckets-1)
			}
			return histBound(i)
		}
	}
	return 2 * histBound(numHistBuckets-1)
}

// HistStat is the report entry of one histogram: observation count,
// accumulated seconds, conservative percentile estimates, and the raw
// per-bucket counts (bucket i spans up to 1µs·2^i; the final entry is the
// overflow bucket).
type HistStat struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50_seconds"`
	P95        float64 `json:"p95_seconds"`
	P99        float64 `json:"p99_seconds"`
	Buckets    []int64 `json:"buckets,omitempty"`
}
