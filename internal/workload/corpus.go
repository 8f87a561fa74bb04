// Package workload generates the evaluation's datasets and load, playing
// the role of the paper's 36 GB XML corpus and the Microsoft Web
// Application Stress Tool (§6.1-6.2): deterministic synthetic corpora with
// the paper's size distributions, closed-loop concurrent request
// generators with randomized think time, and TTFB/TTLB/RPS/throughput
// measurement.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Item is one object in a corpus. Payload bytes are generated on demand so
// large corpora cost index memory only.
type Item struct {
	Key  string
	Size int
	// Class is the resource type: "a", "b" or "c" (the paper's Fig 12
	// compares three resource types, which we map to small / medium /
	// large size classes).
	Class string
	seed  int64
}

// Payload materializes the item's deterministic pseudo-XML bytes.
func (it Item) Payload() []byte {
	head := fmt.Sprintf("<?xml version=\"1.0\"?><component key=%q size=\"%d\" class=%q>", it.Key, it.Size, it.Class)
	buf := make([]byte, it.Size)
	n := copy(buf, head)
	rng := rand.New(rand.NewSource(it.seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEF <>/=\"etag"
	for i := n; i < len(buf); i++ {
		buf[i] = alphabet[rng.Intn(len(alphabet))]
	}
	tail := "</component>"
	if len(buf) > len(tail) {
		copy(buf[len(buf)-len(tail):], tail)
	}
	return buf
}

// Corpus is a deterministic set of items.
type Corpus struct {
	Items []Item
	rng   *rand.Rand
}

// CorpusConfig sizes a corpus.
type CorpusConfig struct {
	// N is the number of items.
	N int
	// MinSize and MaxSize bound item sizes in bytes. The paper's read
	// corpus uses 3 KB - 600 KB XML files; the Put corpus 18 KB - 7633 KB.
	MinSize, MaxSize int
	// Seed makes the corpus reproducible.
	Seed int64
}

// ReadCorpusConfig mirrors §6.1's dataset shape (3-600 KB XML) at a
// laptop-scale item count.
func ReadCorpusConfig(n int, seed int64) CorpusConfig {
	return CorpusConfig{N: n, MinSize: 3 << 10, MaxSize: 600 << 10, Seed: seed}
}

// PutCorpusConfig mirrors §6.2's dataset shape (18 KB - 7633 KB files).
func PutCorpusConfig(n int, seed int64) CorpusConfig {
	return CorpusConfig{N: n, MinSize: 18 << 10, MaxSize: 7633 << 10, Seed: seed}
}

// NewCorpus builds a corpus: sizes are log-uniform between the bounds
// (matching a file-size population dominated by small files with a long
// tail), classes split small/medium/large at the terciles of the log-size
// range.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 1024
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{rng: rng}
	logMin, logMax := math.Log(float64(cfg.MinSize)), math.Log(float64(cfg.MaxSize))
	for i := 0; i < cfg.N; i++ {
		logSize := logMin + rng.Float64()*(logMax-logMin)
		size := int(math.Exp(logSize))
		frac := 0.0
		if logMax > logMin {
			frac = (logSize - logMin) / (logMax - logMin)
		}
		class := "a"
		switch {
		case frac > 2.0/3:
			class = "c"
		case frac > 1.0/3:
			class = "b"
		}
		c.Items = append(c.Items, Item{
			Key:   fmt.Sprintf("item-%08d", i),
			Size:  size,
			Class: class,
			seed:  cfg.Seed ^ int64(i)*2654435761,
		})
	}
	return c
}

// TotalBytes sums item sizes.
func (c *Corpus) TotalBytes() int64 {
	var total int64
	for _, it := range c.Items {
		total += int64(it.Size)
	}
	return total
}

// ByClass returns the items of one resource class.
func (c *Corpus) ByClass(class string) []Item {
	var out []Item
	for _, it := range c.Items {
		if it.Class == class {
			out = append(out, it)
		}
	}
	return out
}

// GaussianPicker reproduces §6.2's selection procedure: "these files are
// sorted by their sizes and fetched to test system according to the
// Gaussian distribution of their sizes with parameters µ=15, σ=5 that makes
// most of the sizes of the randomly selected files be got from the
// dataset" — items are sorted by size and the pick index is drawn from
// N(µ, σ) over a 0-99 percentile scale, clamped, so selections concentrate
// in the lower-middle of the size range.
type GaussianPicker struct {
	mu     sync.Mutex
	sorted []Item
	rng    *rand.Rand
	mean   float64
	sigma  float64
}

// NewGaussianPicker builds a picker over the corpus with the paper's
// parameters µ=15, σ=5 on a 100-point scale.
func NewGaussianPicker(c *Corpus, seed int64) *GaussianPicker {
	sorted := append([]Item(nil), c.Items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Size < sorted[j].Size })
	return &GaussianPicker{
		sorted: sorted,
		rng:    rand.New(rand.NewSource(seed)),
		mean:   15,
		sigma:  5,
	}
}

// Pick draws one item. It is safe for concurrent use.
func (p *GaussianPicker) Pick() Item {
	p.mu.Lock()
	defer p.mu.Unlock()
	percentile := p.rng.NormFloat64()*p.sigma + p.mean
	if percentile < 0 {
		percentile = 0
	}
	if percentile > 99 {
		percentile = 99
	}
	idx := int(percentile / 100 * float64(len(p.sorted)))
	if idx >= len(p.sorted) {
		idx = len(p.sorted) - 1
	}
	return p.sorted[idx]
}
