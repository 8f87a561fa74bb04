// Package metrics provides the measurement primitives: the bucketed latency
// histograms and registry the running system exports, throughput and
// request-rate counters, and time-series samplers for the
// Put-success-over-time experiment (Fig 16).
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonically increasing counter. It is
// lock-free so hot paths (WAL appends, cache lookups) can bump it without
// contending: the zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Throughput summarizes a timed run: bytes moved, operations completed and
// the wall-clock window, from which it derives MB/s and requests per second.
type Throughput struct {
	Bytes   int64
	Ops     int64
	Errors  int64
	Elapsed time.Duration
}

// MBPerSec returns megabytes per second (decimal MB, as the paper reports).
func (t Throughput) MBPerSec() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Bytes) / 1e6 / t.Elapsed.Seconds()
}

// RPS returns successful requests per second.
func (t Throughput) RPS() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Ops) / t.Elapsed.Seconds()
}

// String renders the summary in the units the paper's figures use.
func (t Throughput) String() string {
	return fmt.Sprintf("%.2f MB/s, %.1f req/s (%d ops, %d errors, %s)",
		t.MBPerSec(), t.RPS(), t.Ops, t.Errors, t.Elapsed.Round(time.Millisecond))
}

// TimeSeries accumulates per-bucket counts over elapsed time, used for the
// "successful hits per second" plot (Fig 16).
type TimeSeries struct {
	mu     sync.Mutex
	start  time.Time
	bucket time.Duration
	counts []int64
}

// NewTimeSeries starts a series at now with the given bucket width.
func NewTimeSeries(now time.Time, bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &TimeSeries{start: now, bucket: bucket}
}

// Record adds one event at time at.
func (ts *TimeSeries) Record(at time.Time) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	idx := int(at.Sub(ts.start) / ts.bucket)
	if idx < 0 {
		idx = 0
	}
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
	}
	ts.counts[idx]++
}

// Buckets returns a copy of the per-bucket counts.
func (ts *TimeSeries) Buckets() []int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]int64, len(ts.counts))
	copy(out, ts.counts)
	return out
}

// BucketWidth returns the configured bucket width.
func (ts *TimeSeries) BucketWidth() time.Duration { return ts.bucket }
