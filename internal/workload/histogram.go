package workload

import (
	"sort"
	"sync"
	"time"
)

// DefaultSampleCap bounds how many exact samples a Histogram retains. A full
// reservoir is 8 MiB; beyond it, incoming samples displace retained ones
// uniformly at random (Vitter's algorithm R), so a multi-hour run keeps a
// statistically faithful window instead of growing memory linearly.
const DefaultSampleCap = 1 << 20

// Histogram records the durations a load run observes and extracts order
// statistics. It keeps exact samples up to a cap (the experiments record at
// most a few hundred thousand operations, well under it), guarded by a mutex
// so load-generator goroutines can record concurrently. Count and Mean stay
// exact past the cap; quantiles and cumulative counts become reservoir
// estimates.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	cap     int
	seen    int64 // total observations, including displaced ones
	sum     time.Duration
	rng     uint64
}

// NewHistogram returns an empty histogram retaining up to DefaultSampleCap
// samples.
func NewHistogram() *Histogram {
	return &Histogram{cap: DefaultSampleCap, rng: 0x9E3779B97F4A7C15}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen++
	h.sum += d
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		h.sorted = false
		return
	}
	// Reservoir full: keep d with probability cap/seen, displacing a
	// uniformly random resident (xorshift64, cheap and already under h.mu).
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if j := h.rng % uint64(h.seen); j < uint64(h.cap) {
		h.samples[j] = d
		h.sorted = false
	}
}

// Count returns the number of observed samples, including any no longer
// retained by the reservoir.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.seen)
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Quantile returns the q-th (0 ≤ q ≤ 1) order statistic, or zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	idx := int(q * float64(len(h.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Mean returns the arithmetic mean over every observation (exact even past
// the reservoir cap), or zero when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	return h.sum / time.Duration(h.seen)
}

// CumulativeWithin returns how many samples are ≤ each of the given
// thresholds. This is the statistic Fig 17 plots: "the sum of all the Put
// operations whose consuming time is less than the consuming time specified
// by the horizontal axis".
func (h *Histogram) CumulativeWithin(thresholds []time.Duration) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	out := make([]int, len(thresholds))
	for i, t := range thresholds {
		n := sort.Search(len(h.samples), func(j int) bool { return h.samples[j] > t })
		if int64(len(h.samples)) < h.seen {
			// Reservoir displaced samples: scale the retained fraction back
			// up to an estimate over every observation.
			n = int(float64(n) * float64(h.seen) / float64(len(h.samples)))
		}
		out[i] = n
	}
	return out
}
