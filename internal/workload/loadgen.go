package workload

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/metrics"
)

// OpResult is what one operation reports to the measurement layer.
type OpResult struct {
	// Bytes moved (payload size), counted toward throughput on success.
	Bytes int
	// TTFB is the time to first byte when the operation can observe it
	// (HTTP reads); zero means "same as total" and the harness substitutes
	// the full latency.
	TTFB time.Duration
	// Err marks the operation failed; failed operations count as errors,
	// not toward RPS.
	Err error
}

// Op performs one request. The load generator supplies a per-process RNG
// so operations can pick work items deterministically without contending
// on a shared source.
type Op func(ctx context.Context, rng *rand.Rand) OpResult

// Options shape a load run, mirroring the paper's WAS tool settings.
type Options struct {
	// Processes is the number of concurrent request processes (the
	// Figs 13-14 sweep variable).
	Processes int
	// Requests is the total request budget across all processes. Zero
	// means run until Duration elapses.
	Requests int
	// Duration bounds the run when Requests is zero.
	Duration time.Duration
	// ThinkMin/ThinkMax delay each process between requests; the paper's
	// soak uses "randomly delay between 0 to 500 ms".
	ThinkMin, ThinkMax time.Duration
	// Seed makes process RNGs reproducible.
	Seed int64
}

// Result is the measured outcome of a load run.
type Result struct {
	TTFB       *Histogram
	TTLB       *Histogram
	Throughput metrics.Throughput
}

// Run drives opts.Processes closed-loop workers issuing op until the
// request budget or duration is exhausted.
func Run(ctx context.Context, opts Options, op Op) Result {
	if opts.Processes <= 0 {
		opts.Processes = 1
	}
	if opts.Requests <= 0 && opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	res := Result{TTFB: NewHistogram(), TTLB: NewHistogram()}
	var bytes, ops, errs atomic.Int64
	var budget atomic.Int64
	budget.Store(int64(opts.Requests))

	runCtx := ctx
	var cancel context.CancelFunc
	if opts.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < opts.Processes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(p)*7919))
			for {
				if runCtx.Err() != nil {
					return
				}
				if opts.Requests > 0 && budget.Add(-1) < 0 {
					return
				}
				if opts.ThinkMax > opts.ThinkMin {
					think := opts.ThinkMin + time.Duration(rng.Int63n(int64(opts.ThinkMax-opts.ThinkMin)))
					select {
					case <-runCtx.Done():
						return
					case <-time.After(think):
					}
				}
				t0 := time.Now()
				r := op(runCtx, rng)
				total := time.Since(t0)
				if r.Err != nil {
					errs.Add(1)
					continue
				}
				ttfb := r.TTFB
				if ttfb <= 0 {
					ttfb = total
				}
				res.TTFB.Observe(ttfb)
				res.TTLB.Observe(total)
				bytes.Add(int64(r.Bytes))
				ops.Add(1)
			}
		}(p)
	}
	wg.Wait()
	res.Throughput = metrics.Throughput{
		Bytes:   bytes.Load(),
		Ops:     ops.Load(),
		Errors:  errs.Load(),
		Elapsed: time.Since(start),
	}
	return res
}
