package workload

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestCorpusDeterministic(t *testing.T) {
	a := NewCorpus(ReadCorpusConfig(100, 42))
	b := NewCorpus(ReadCorpusConfig(100, 42))
	if len(a.Items) != 100 || len(b.Items) != 100 {
		t.Fatalf("corpus sizes %d/%d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("corpus diverges at %d", i)
		}
		if !bytes.Equal(a.Items[i].Payload(), b.Items[i].Payload()) {
			t.Fatalf("payload diverges at %d", i)
		}
	}
}

func TestCorpusSizeBounds(t *testing.T) {
	c := NewCorpus(ReadCorpusConfig(500, 7))
	for _, it := range c.Items {
		if it.Size < 3<<10 || it.Size > 600<<10 {
			t.Fatalf("item size %d outside [3KB, 600KB]", it.Size)
		}
		if got := len(it.Payload()); got != it.Size {
			t.Fatalf("payload length %d != declared size %d", got, it.Size)
		}
	}
}

func TestCorpusClasses(t *testing.T) {
	c := NewCorpus(ReadCorpusConfig(900, 3))
	counts := map[string]int{}
	for _, it := range c.Items {
		counts[it.Class]++
	}
	for _, class := range []string{"a", "b", "c"} {
		if counts[class] == 0 {
			t.Fatalf("class %s empty: %v", class, counts)
		}
		if got := c.ByClass(class); len(got) != counts[class] {
			t.Fatalf("ByClass(%s) = %d, want %d", class, len(got), counts[class])
		}
	}
	// Classes are ordered by size: max(a) <= min sizes should trend upward.
	maxA, minC := 0, 1<<30
	for _, it := range c.ByClass("a") {
		if it.Size > maxA {
			maxA = it.Size
		}
	}
	for _, it := range c.ByClass("c") {
		if it.Size < minC {
			minC = it.Size
		}
	}
	if maxA >= minC {
		t.Fatalf("class a max %d >= class c min %d", maxA, minC)
	}
}

func TestCorpusDefaults(t *testing.T) {
	c := NewCorpus(CorpusConfig{})
	if len(c.Items) != 1 {
		t.Fatalf("default corpus size = %d", len(c.Items))
	}
}

func TestPayloadLooksLikeXML(t *testing.T) {
	c := NewCorpus(ReadCorpusConfig(5, 1))
	p := c.Items[0].Payload()
	if !bytes.HasPrefix(p, []byte("<?xml")) {
		t.Fatalf("payload prefix = %q", p[:20])
	}
	if !bytes.HasSuffix(p, []byte("</component>")) {
		t.Fatal("payload missing closing tag")
	}
}

func TestGaussianPickerConcentration(t *testing.T) {
	c := NewCorpus(PutCorpusConfig(1000, 5))
	// With µ=15 σ=5 on a 0-99 percentile scale, picks concentrate in the
	// lower-middle of the size-sorted list: nearly all below the median.
	p := NewGaussianPicker(c, 11)
	low, total := 0, 5000
	for i := 0; i < total; i++ {
		it := p.Pick()
		rank := 0
		for _, other := range c.Items {
			if other.Size < it.Size {
				rank++
			}
		}
		if float64(rank)/float64(len(c.Items)) < 0.5 {
			low++
		}
	}
	frac := float64(low) / float64(total)
	if frac < 0.95 {
		t.Fatalf("only %.2f of picks below the size median, want nearly all (µ=15 σ=5)", frac)
	}
}

func TestGaussianPickerDeterministic(t *testing.T) {
	c := NewCorpus(PutCorpusConfig(100, 5))
	p1 := NewGaussianPicker(c, 9)
	p2 := NewGaussianPicker(c, 9)
	for i := 0; i < 100; i++ {
		if p1.Pick() != p2.Pick() {
			t.Fatal("picker not deterministic")
		}
	}
}

func TestTotalBytes(t *testing.T) {
	c := NewCorpus(ReadCorpusConfig(50, 2))
	var want int64
	for _, it := range c.Items {
		want += int64(it.Size)
	}
	if got := c.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestRunRequestBudget(t *testing.T) {
	var count int64
	res := Run(context.Background(), Options{Processes: 4, Requests: 100}, func(ctx context.Context, rng *rand.Rand) OpResult {
		return OpResult{Bytes: 10}
	})
	count = res.Throughput.Ops
	if count != 100 {
		t.Fatalf("ops = %d, want 100", count)
	}
	if res.Throughput.Bytes != 1000 {
		t.Fatalf("bytes = %d", res.Throughput.Bytes)
	}
	if res.TTLB.Snapshot().Count != 100 {
		t.Fatalf("TTLB samples = %d", res.TTLB.Snapshot().Count)
	}
}

func TestRunDurationBound(t *testing.T) {
	start := time.Now()
	res := Run(context.Background(), Options{Processes: 2, Duration: 50 * time.Millisecond},
		func(ctx context.Context, rng *rand.Rand) OpResult {
			time.Sleep(time.Millisecond)
			return OpResult{Bytes: 1}
		})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("run took %v, want ~50ms", elapsed)
	}
	if res.Throughput.Ops == 0 {
		t.Fatal("no ops completed in duration-bound run")
	}
}

func TestRunCountsErrors(t *testing.T) {
	boom := errors.New("boom")
	res := Run(context.Background(), Options{Processes: 2, Requests: 50},
		func(ctx context.Context, rng *rand.Rand) OpResult {
			if rng.Intn(2) == 0 {
				return OpResult{Err: boom}
			}
			return OpResult{Bytes: 1}
		})
	if res.Throughput.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if res.Throughput.Ops+res.Throughput.Errors != 50 {
		t.Fatalf("ops+errors = %d, want 50", res.Throughput.Ops+res.Throughput.Errors)
	}
}

func TestRunThinkTime(t *testing.T) {
	start := time.Now()
	Run(context.Background(), Options{
		Processes: 1, Requests: 5,
		ThinkMin: 5 * time.Millisecond, ThinkMax: 10 * time.Millisecond,
	}, func(ctx context.Context, rng *rand.Rand) OpResult { return OpResult{Bytes: 1} })
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("5 requests with >=5ms think finished in %v", elapsed)
	}
}

func TestRunTTFBSubstitution(t *testing.T) {
	res := Run(context.Background(), Options{Processes: 1, Requests: 3},
		func(ctx context.Context, rng *rand.Rand) OpResult {
			time.Sleep(2 * time.Millisecond)
			return OpResult{Bytes: 1} // no explicit TTFB
		})
	if res.TTFB.Snapshot().Count != 3 {
		t.Fatalf("TTFB samples = %d", res.TTFB.Snapshot().Count)
	}
	if res.TTFB.Snapshot().Quantile(0) <= 0 {
		t.Fatal("TTFB not substituted with total latency")
	}
}

func TestRunExplicitTTFB(t *testing.T) {
	res := Run(context.Background(), Options{Processes: 1, Requests: 1},
		func(ctx context.Context, rng *rand.Rand) OpResult {
			return OpResult{Bytes: 1, TTFB: 42 * time.Microsecond}
		})
	if got := time.Duration(res.TTFB.Snapshot().Mean()); got != 42*time.Microsecond {
		t.Fatalf("TTFB = %v", got)
	}
}

// TestHistogramQuantiles: a run's latency histograms answer a quantile within
// 10% of the exact order statistic of what they observed.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 5000)
	for i := range samples { // log-uniform over 10µs..10s
		samples[i] = time.Duration(1e4 * math.Pow(1e6, rng.Float64()))
	}
	next := 0
	res := Run(context.Background(), Options{Processes: 1, Requests: len(samples)},
		func(ctx context.Context, rng *rand.Rand) OpResult {
			next++
			return OpResult{TTFB: samples[next-1]}
		})
	slices.Sort(samples)
	snap := res.TTFB.Snapshot()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		exact := float64(samples[int(q*float64(len(samples)))])
		if got := float64(snap.Quantile(q)); math.Abs(got-exact) > 0.1*exact {
			t.Errorf("Quantile(%v) = %v, exact %v", q, time.Duration(got), time.Duration(exact))
		}
	}
}
