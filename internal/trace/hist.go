package trace

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the resolution of every latency histogram in the
// repo: power-of-two nanosecond buckets covering ~1ns to ~9min.
const HistBuckets = 40

// Histogram is the repo's one power-of-two latency histogram. Bucket i
// counts durations d with 2^(i-1) < d <= 2^i ns (bucket 0 holds d <= 1ns;
// the last bucket also absorbs everything above its bound), so bucket i
// is exactly the Prometheus series le=2^i ns and an observation of
// 2^k ns counts at its own le. All counters are atomic: safe for
// concurrent use, never allocates. The zero value is ready to use.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns - 1))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// Observe records one duration; negative durations count as zero.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the observed durations' total in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets copies the per-bucket (non-cumulative) counts into dst, which
// must hold HistBuckets entries, and returns their total. Exposition
// uses that total as the observation count, so the cumulative buckets
// never exceed it even while observers run.
func (h *Histogram) Buckets(dst []int64) int64 {
	var n int64
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
		n += dst[i]
	}
	return n
}

// Quantile returns the upper bound in nanoseconds of the bucket holding
// the q-quantile, good to a factor of two; 0 when nothing was observed.
// The rank is the ceiling of q×count — the observation at or above
// which a fraction q of all observations lie — so q=0.99 over 10
// observations selects the 10th (truncating would select the 9th, a
// bucket below the true quantile).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return int64(1) << uint(i)
		}
	}
	return int64(1) << (HistBuckets - 1)
}

// HistUppers returns the bucket upper bounds in seconds (2^i ns for
// bucket i). The slice is freshly allocated; cold path only
// (exposition).
func HistUppers() []float64 {
	u := make([]float64, HistBuckets)
	for i := range u {
		u[i] = float64(uint64(1)<<uint(i)) / 1e9
	}
	return u
}
