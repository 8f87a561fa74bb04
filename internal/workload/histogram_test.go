package workload

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 100; i >= 1; i-- { // insert descending to exercise sorting
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Quantile(0.5); got < 49*time.Millisecond || got > 52*time.Millisecond {
		t.Errorf("median = %v, want ~50ms", got)
	}
	if got := h.Quantile(0); got != time.Millisecond {
		t.Errorf("q0 = %v, want 1ms", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("q1 = %v, want 100ms", got)
	}
}

// TestHistogramEmpty pins the empty-histogram contract the harness relies
// on: every statistic reports zero rather than indexing.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
	if got := h.CumulativeWithin([]time.Duration{time.Second}); got[0] != 0 {
		t.Fatalf("empty CumulativeWithin = %d, want 0", got[0])
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", got)
	}
}

func TestHistogramCumulativeWithin(t *testing.T) {
	h := NewHistogram()
	for _, ms := range []int{5, 10, 15, 20, 25} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	got := h.CumulativeWithin([]time.Duration{
		time.Millisecond, 10 * time.Millisecond, 17 * time.Millisecond, time.Second,
	})
	want := []int{0, 2, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CumulativeWithin[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestHistogramCumulativeMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(time.Duration(r) * time.Microsecond)
		}
		ths := []time.Duration{0, time.Microsecond, 100 * time.Microsecond,
			10 * time.Millisecond, 100 * time.Millisecond}
		counts := h.CumulativeWithin(ths)
		prev := -1
		for _, c := range counts {
			if c < prev || c > len(raw) {
				return false
			}
			prev = c
		}
		return counts[len(counts)-1] == len(raw) // all uint16 µs fit under 100ms
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

// TestHistogramSampleCap: Observe past the retention cap must not grow
// memory, while Count and Mean stay exact and quantiles remain reservoir
// estimates of the full stream.
func TestHistogramSampleCap(t *testing.T) {
	const capN = 1000
	h := NewHistogram()
	h.cap = capN
	for i := 1; i <= 10*capN; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Count(); got != 10*capN {
		t.Fatalf("Count = %d, want %d (exact past the cap)", got, 10*capN)
	}
	if got := len(h.samples); got != capN {
		t.Fatalf("retained %d samples, want cap %d", got, capN)
	}
	wantMean := time.Duration(10*capN+1) * time.Microsecond / 2
	if got := h.Mean(); got != wantMean {
		t.Errorf("Mean = %v, want %v (exact)", got, wantMean)
	}
	// The stream is uniform over (0, 10ms]; the reservoir median should be a
	// fair estimate, not stuck in the first cap samples (which would put it
	// at ~500µs).
	if got := h.Quantile(0.5); got < 3*time.Millisecond || got > 7*time.Millisecond {
		t.Errorf("reservoir median = %v, want ~5ms", got)
	}
	// CumulativeWithin scales the retained fraction back to the full stream.
	within := h.CumulativeWithin([]time.Duration{10 * capN * time.Microsecond})
	if within[0] < 9*capN || within[0] > 10*capN {
		t.Errorf("CumulativeWithin(max) = %d, want ~%d", within[0], 10*capN)
	}
}
