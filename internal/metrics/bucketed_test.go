package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// bucketIndex returns which bucket of bounds v lands in, mirroring Observe.
func bucketIndex(bounds []int64, v int64) int {
	i := sort.Search(len(bounds), func(j int) bool { return v <= bounds[j] })
	return i
}

// TestBucketedQuantileAccuracy drives the histogram across several
// distributions and requires its quantile to land within one bucket of the
// exact order statistic of the same samples — the "agree within
// bucket error" guarantee the production metrics rely on.
func TestBucketedQuantileAccuracy(t *testing.T) {
	const n = 20000
	gen := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		draw func() time.Duration
	}{
		{"uniform", func() time.Duration {
			return time.Microsecond + time.Duration(gen.Int63n(int64(100*time.Millisecond)))
		}},
		{"exponential", func() time.Duration {
			d := time.Duration(gen.ExpFloat64() * float64(time.Millisecond))
			if d < time.Microsecond {
				d = time.Microsecond
			}
			return d
		}},
		{"bimodal", func() time.Duration {
			if gen.Float64() < 0.9 {
				return 50*time.Microsecond + time.Duration(gen.Int63n(int64(100*time.Microsecond)))
			}
			return 20*time.Millisecond + time.Duration(gen.Int63n(int64(60*time.Millisecond)))
		}},
		{"constant", func() time.Duration { return 1500 * time.Microsecond }},
		{"heavy-tail", func() time.Duration {
			// Pareto-ish: 1µs * 2^(12*u), spanning the full bucket range.
			return time.Duration(float64(time.Microsecond) * pow2(12*gen.Float64()))
		}},
	}
	quantiles := []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999}
	bounds := DefaultLatencyBounds()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := make([]int64, n)
			var sum int64
			bucketed := NewBucketedHistogram(bounds)
			for i := range exact {
				d := tc.draw()
				exact[i] = int64(d)
				sum += int64(d)
				bucketed.ObserveDuration(d)
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			snap := bucketed.Snapshot()
			for _, q := range quantiles {
				want := exact[int(q*float64(n-1))]
				got := snap.Quantile(q)
				if diff := bucketIndex(bounds, got) - bucketIndex(bounds, want); diff < -1 || diff > 1 {
					t.Errorf("q%.3f: bucketed %v in bucket %d, exact %v in bucket %d",
						q, time.Duration(got), bucketIndex(bounds, got),
						time.Duration(want), bucketIndex(bounds, want))
				}
			}
			if snap.Count != n || snap.Count != bucketed.count.Load() {
				t.Fatalf("count = %d / %d, want %d", snap.Count, bucketed.count.Load(), n)
			}
			exactMean := float64(sum / n)
			if m := snap.Mean(); m < exactMean*0.999 || m > exactMean*1.001 {
				t.Errorf("mean = %v, exact %v", m, exactMean)
			}
		})
	}
}

func pow2(x float64) float64 {
	out := 1.0
	for x >= 1 {
		out *= 2
		x--
	}
	return out * (1 + x) // linear between powers; fine for test data
}

// TestHistogramEmpty pins the empty-histogram contract the /metrics endpoint
// relies on: a histogram built but never observed reports zeros, for every
// bounds choice, rather than an edge of its first bucket.
func TestHistogramEmpty(t *testing.T) {
	for _, bounds := range [][]int64{nil, DefaultLatencyBounds(), DefaultSizeBounds(), {10, 100}} {
		h := NewBucketedHistogram(bounds)
		if h.count.Load() != 0 || h.sum.Load() != 0 {
			t.Fatalf("bounds %v: empty Count/Sum = %d/%d, want 0/0", bounds, h.count.Load(), h.sum.Load())
		}
		s := h.Snapshot()
		if s.Count != 0 || s.Sum != 0 || s.Mean() != 0 {
			t.Fatalf("bounds %v: empty snapshot Count/Sum/Mean = %d/%d/%v, want zeros", bounds, s.Count, s.Sum, s.Mean())
		}
		for i, c := range s.Counts {
			if c != 0 {
				t.Fatalf("bounds %v: empty bucket %d = %d, want 0", bounds, i, c)
			}
		}
	}
}

// TestHistogramEmptyQuantile checks that every quantile of an empty
// histogram is zero, including out-of-range q and the merge of two empty
// snapshots, and that one observation makes it non-zero.
func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewBucketedHistogram([]int64{10, 100, 1000})
	s := h.Snapshot()
	merged := s.Merge(NewBucketedHistogram([]int64{10, 100, 1000}).Snapshot())
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
		if got := merged.Quantile(q); got != 0 {
			t.Fatalf("merged empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	h.Observe(500)
	if got := h.Snapshot().Quantile(0.5); got <= 100 || got > 1000 {
		t.Fatalf("one-sample median = %d, want within (100, 1000]", got)
	}
}

func TestBucketedQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
	h := NewBucketedHistogram([]int64{10, 100, 1000})
	h.Observe(5)
	h.Observe(5000) // overflow bucket
	s := h.Snapshot()
	if got := s.Quantile(-1); got < 0 || got > 10 {
		t.Fatalf("q<0 = %d, want within first bucket", got)
	}
	if got := s.Quantile(2); got != 1000 {
		t.Fatalf("q>1 = %d, want overflow lower edge 1000", got)
	}
	if got := s.Quantile(1); got != 1000 {
		t.Fatalf("q1 = %d, want 1000 (overflow reports its lower edge)", got)
	}
}

func TestSnapshotMergeAssociative(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	mk := func() HistogramSnapshot {
		h := NewBucketedHistogram(DefaultSizeBounds())
		for i := 0; i < 500; i++ {
			h.Observe(gen.Int63n(2_000_000))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left.Count != right.Count || left.Sum != right.Sum {
		t.Fatalf("merge not associative: %d/%d vs %d/%d", left.Count, left.Sum, right.Count, right.Sum)
	}
	for i := range left.Counts {
		if left.Counts[i] != right.Counts[i] {
			t.Fatalf("bucket %d: %d vs %d", i, left.Counts[i], right.Counts[i])
		}
	}
	if left.Count != 1500 {
		t.Fatalf("merged count = %d", left.Count)
	}
	// Merging with a zero snapshot is the identity.
	var zero HistogramSnapshot
	id := zero.Merge(a)
	if id.Count != a.Count || a.Merge(zero).Count != a.Count {
		t.Fatal("zero snapshot is not a merge identity")
	}
	// Mismatched bounds must refuse loudly.
	other := NewBucketedHistogram([]int64{1, 2, 3}).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched bounds did not panic")
		}
	}()
	a.Merge(other)
}

// TestBucketedHammer is the satellite -race test: 64 concurrent observers
// plus snapshot readers against one histogram; exact totals must survive.
func TestBucketedHammer(t *testing.T) {
	const (
		workers = 64
		perW    = 2000
	)
	h := NewBucketedHistogram(nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var cum int64
				for _, c := range s.Counts {
					cum += c
				}
				// Observe writes count before bucket and Snapshot reads
				// buckets before count, so this holds exactly.
				if cum > s.Count {
					panic("snapshot bucket total ran ahead of count")
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*perW {
		t.Fatalf("count = %d, want %d", s.Count, workers*perW)
	}
	var cum int64
	for _, c := range s.Counts {
		cum += c
	}
	if cum != s.Count {
		t.Fatalf("bucket total %d != count %d", cum, s.Count)
	}
}

// TestObserveAllocationFree pins the acceptance criterion that the hot path
// never touches the heap.
func TestObserveAllocationFree(t *testing.T) {
	h := NewBucketedHistogram(nil)
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); avg != 0 {
		t.Fatalf("Observe allocates %.1f objects per call", avg)
	}
	v := NewHistogramVec(nil)
	peer := v.With("n1") // steady state: histogram exists
	if avg := testing.AllocsPerRun(1000, func() { peer.ObserveDuration(5 * time.Millisecond) }); avg != 0 {
		t.Fatalf("vec Observe allocates %.1f objects per call", avg)
	}
}

func BenchmarkBucketedObserve(b *testing.B) {
	h := NewBucketedHistogram(nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*2097169 + 7 // wander across buckets
		}
	})
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec([]int64{10, 100})
	v.With("a").Observe(5)
	v.With("a").Observe(50)
	v.With("b").Observe(500)
	snaps := v.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("labels = %d, want 2", len(snaps))
	}
	if snaps["a"].Count != 2 || snaps["b"].Count != 1 {
		t.Fatalf("counts a=%d b=%d", snaps["a"].Count, snaps["b"].Count)
	}
	if snaps["b"].Counts[2] != 1 {
		t.Fatal("b's sample should land in the overflow bucket")
	}
	if v.With("a") != v.With("a") {
		t.Fatal("With not stable per label")
	}
}

func TestBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewBucketedHistogram([]int64{10, 10, 20})
}
