package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// BucketedHistogram is the one histogram, in the product and in the figure
// harness alike: fixed boundaries chosen at construction, one atomic counter
// per bucket, no lock and no allocation on Observe. It trades exact order
// statistics for bounded memory and a hot path cheap enough for WAL fsyncs
// and per-RPC latencies; quantiles interpolate within the landing bucket, so
// their error is bounded by the bucket width (a factor of two with the
// default bounds), while the count, the sum and so the mean are exact.
type BucketedHistogram struct {
	bounds []int64        // sorted upper bounds; values v <= bounds[i] land in bucket i
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
}

// DefaultLatencyBounds covers 1µs to ~64s in factor-of-two steps (27
// buckets), wide enough for a cache hit and a timed-out quorum write alike.
func DefaultLatencyBounds() []int64 {
	bounds := make([]int64, 27)
	v := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// DefaultSizeBounds covers 1 to ~1M in factor-of-two steps (21 buckets), for
// unitless sizes such as records per WAL fsync batch or queue depths.
func DefaultSizeBounds() []int64 {
	bounds := make([]int64, 21)
	v := int64(1)
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// NewBucketedHistogram builds a histogram over the given sorted, strictly
// increasing upper bounds (nil means DefaultLatencyBounds).
func NewBucketedHistogram(bounds []int64) *BucketedHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("metrics: bucket bounds must be strictly increasing")
		}
	}
	return &BucketedHistogram{
		bounds: own,
		counts: make([]atomic.Int64, len(own)+1),
	}
}

// Observe records one value. Lock-free and allocation-free: two atomic adds
// plus a binary search over the bounds. The search is hand-rolled (not
// sort.Search) so no closure escapes to the heap.
func (h *BucketedHistogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Count and sum land before the bucket; Snapshot reads in the opposite
	// order (buckets first), so a concurrent snapshot's bucket total never
	// exceeds its count.
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[lo].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *BucketedHistogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot captures a point-in-time copy. Buckets are read individually, so
// a snapshot taken during concurrent observation may lag the in-flight
// handful — fine for monitoring, which is its only consumer. Buckets are
// read before count/sum (the reverse of Observe's write order), so the
// bucket total never exceeds the count.
func (h *BucketedHistogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; safe to share
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a BucketedHistogram's state.
// Snapshots with identical bounds merge associatively, so per-shard or
// per-node histograms aggregate into cluster views.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64 // len(Bounds)+1, last is +Inf
	Count  int64
	Sum    int64
}

// Merge returns the sum of two snapshots. Both must share bounds (they came
// from histograms built with the same constructor); mismatched bounds panic
// rather than silently mis-merge.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) == 0 {
		return o
	}
	if len(o.Bounds) == 0 {
		return s
	}
	if len(s.Bounds) != len(o.Bounds) {
		panic("metrics: merging snapshots with different bounds")
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			panic("metrics: merging snapshots with different bounds")
		}
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Quantile estimates the q-th (0 ≤ q ≤ 1) quantile by locating the bucket
// holding the target rank and interpolating linearly within it. Returns 0
// when empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lower := int64(0)
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := lower
		if i < len(s.Bounds) {
			upper = s.Bounds[i]
		}
		// Overflow bucket has no upper bound: report its lower edge.
		if upper == lower {
			return lower
		}
		frac := (rank - prev) / float64(c)
		return lower + int64(frac*float64(upper-lower))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the exact arithmetic mean, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HistogramVec groups BucketedHistograms by one label value (peer address,
// shard id). Lookup is a sync.Map load on the steady-state path; histograms
// are created on first use and share the vec's bounds.
type HistogramVec struct {
	bounds []int64
	m      sync.Map // string -> *BucketedHistogram
}

// NewHistogramVec builds a vec whose member histograms use the given bounds
// (nil means DefaultLatencyBounds).
func NewHistogramVec(bounds []int64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	return &HistogramVec{bounds: own}
}

// With returns the histogram for the given label value, creating it on first
// use.
func (v *HistogramVec) With(label string) *BucketedHistogram {
	if h, ok := v.m.Load(label); ok {
		return h.(*BucketedHistogram)
	}
	h, _ := v.m.LoadOrStore(label, NewBucketedHistogram(v.bounds))
	return h.(*BucketedHistogram)
}

// Snapshots returns a snapshot per label value.
func (v *HistogramVec) Snapshots() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot)
	v.m.Range(func(k, h any) bool {
		out[k.(string)] = h.(*BucketedHistogram).Snapshot()
		return true
	})
	return out
}
