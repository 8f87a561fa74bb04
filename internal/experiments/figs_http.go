package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"mystore/internal/workload"
)

// preload inserts the corpus into a system through its backend URL.
func preload(url string, corpus *workload.Corpus) error {
	client := newHTTPClient(64)
	for _, it := range corpus.Items {
		resp, err := client.Post(url+"/data/"+it.Key, "application/octet-stream",
			bytes.NewReader(it.Payload()))
		if err != nil {
			return fmt.Errorf("preload %s: %w", it.Key, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("preload %s: status %d", it.Key, resp.StatusCode)
		}
	}
	return nil
}

func newHTTPClient(maxConns int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// httpReadOp issues one GET for a corpus item, measuring time to first
// byte and reading the full body (time to last byte is the op's total).
func httpReadOp(client *http.Client, url string, pick func(rng *rand.Rand) workload.Item) workload.Op {
	return func(ctx context.Context, rng *rand.Rand) workload.OpResult {
		it := pick(rng)
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/data/"+it.Key, nil)
		if err != nil {
			return workload.OpResult{Err: err}
		}
		resp, err := client.Do(req)
		if err != nil {
			return workload.OpResult{Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return workload.OpResult{Err: fmt.Errorf("status %d", resp.StatusCode)}
		}
		// First byte.
		var one [1]byte
		if _, err := io.ReadFull(resp.Body, one[:]); err != nil {
			return workload.OpResult{Err: err}
		}
		ttfb := time.Since(start)
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			return workload.OpResult{Err: err}
		}
		return workload.OpResult{Bytes: int(n) + 1, TTFB: ttfb}
	}
}

// cacheReadRun preloads a small corpus into sys and measures mean read
// latency and the gateway's cache hit rate (used by the cache ablation).
func cacheReadRun(sys *system, scale Scale) (meanMs, hitRatePct float64, err error) {
	scale = scale.withDefaults()
	corpus := workload.NewCorpus(workload.ReadCorpusConfig(scale.ReadItems/4+1, scale.Seed))
	if err := preload(sys.URL(), corpus); err != nil {
		return 0, 0, err
	}
	client := newHTTPClient(scale.LoadProcesses)
	res := workload.Run(context.Background(), workload.Options{
		Processes: scale.LoadProcesses / 2,
		Duration:  scale.StepDuration,
		Seed:      scale.Seed,
	}, httpReadOp(client, sys.URL(), func(rng *rand.Rand) workload.Item {
		// Zipf-ish hot set: 80% of reads hit 20% of items.
		if rng.Intn(5) > 0 {
			return corpus.Items[rng.Intn(len(corpus.Items)/5+1)]
		}
		return corpus.Items[rng.Intn(len(corpus.Items))]
	}))
	st := sys.gateway.Stats()
	total := st.CacheHits + st.CacheMisses
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(st.CacheHits) / float64(total)
	}
	return float64(res.TTLB.Mean()) / 1e6, rate, nil
}

// Fig11Row is one system's read throughput and request rate.
type Fig11Row struct {
	System     string
	MBPerSec   float64
	RPS        float64
	Errors     int64
	MeanTTLBms float64
}

// Fig11Result reproduces Fig 11: "Comparison of throughput and RPS in
// three systems".
type Fig11Result struct {
	Rows []Fig11Row
}

// String renders the paper-shaped table.
func (r Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 — read throughput and RPS, three systems behind the same REST interface\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %12s %8s\n", "system", "MB/s", "req/s", "mean TTLB", "errors")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.2f %10.1f %10.1fms %8d\n",
			row.System, row.MBPerSec, row.RPS, row.MeanTTLBms, row.Errors)
	}
	return b.String()
}

// RunFig11 measures read throughput and RPS for the three systems.
func RunFig11(scale Scale, tmpDir string) (Fig11Result, error) {
	scale = scale.withDefaults()
	corpus := workload.NewCorpus(workload.ReadCorpusConfig(scale.ReadItems, scale.Seed))
	var result Fig11Result
	systems, err := buildThreeSystems(tmpDir)
	if err != nil {
		return result, err
	}
	defer closeAll(systems)
	for _, sys := range systems {
		if err := preload(sys.URL(), corpus); err != nil {
			return result, fmt.Errorf("%s: %w", sys.name, err)
		}
		client := newHTTPClient(scale.LoadProcesses)
		res := workload.Run(context.Background(), workload.Options{
			Processes: scale.LoadProcesses,
			Duration:  scale.StepDuration,
			Seed:      scale.Seed,
		}, httpReadOp(client, sys.URL(), func(rng *rand.Rand) workload.Item {
			return corpus.Items[rng.Intn(len(corpus.Items))]
		}))
		result.Rows = append(result.Rows, Fig11Row{
			System:     sys.name,
			MBPerSec:   res.Throughput.MBPerSec(),
			RPS:        res.Throughput.RPS(),
			Errors:     res.Throughput.Errors,
			MeanTTLBms: float64(res.TTLB.Mean()) / 1e6,
		})
	}
	return result, nil
}

func buildThreeSystems(tmpDir string) ([]*system, error) {
	my, err := newMyStoreSystem(paperTier())
	if err != nil {
		return nil, err
	}
	fs, err := newFSSystem(tmpDir)
	if err != nil {
		my.Close()
		return nil, err
	}
	sql := newSQLSystem()
	return []*system{my, fs, sql}, nil
}

func closeAll(systems []*system) {
	for _, s := range systems {
		s.Close()
	}
}

// Fig12Row is one (system, resource class) latency pair.
type Fig12Row struct {
	System     string
	Class      string
	MeanTTFBms float64
	MeanTTLBms float64
}

// Fig12Result reproduces Fig 12: TTFB and TTLB across three resource types
// in the three systems.
type Fig12Result struct {
	Rows []Fig12Row
}

// String renders the paper-shaped table.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — TTFB / TTLB by resource type (a = small, b = medium, c = large)\n")
	fmt.Fprintf(&b, "%-10s %6s %14s %14s\n", "system", "type", "mean TTFB", "mean TTLB")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %6s %12.1fms %12.1fms\n",
			row.System, row.Class, row.MeanTTFBms, row.MeanTTLBms)
	}
	return b.String()
}

// RunFig12 measures per-class latencies for the three systems.
func RunFig12(scale Scale, tmpDir string) (Fig12Result, error) {
	scale = scale.withDefaults()
	corpus := workload.NewCorpus(workload.ReadCorpusConfig(scale.ReadItems, scale.Seed))
	var result Fig12Result
	systems, err := buildThreeSystems(tmpDir)
	if err != nil {
		return result, err
	}
	defer closeAll(systems)
	for _, sys := range systems {
		if err := preload(sys.URL(), corpus); err != nil {
			return result, fmt.Errorf("%s: %w", sys.name, err)
		}
		client := newHTTPClient(scale.LoadProcesses)
		for _, class := range []string{"a", "b", "c"} {
			items := corpus.ByClass(class)
			if len(items) == 0 {
				continue
			}
			res := workload.Run(context.Background(), workload.Options{
				Processes: scale.LoadProcesses / 2,
				Duration:  scale.StepDuration / 2,
				Seed:      scale.Seed,
			}, httpReadOp(client, sys.URL(), func(rng *rand.Rand) workload.Item {
				return items[rng.Intn(len(items))]
			}))
			result.Rows = append(result.Rows, Fig12Row{
				System:     sys.name,
				Class:      class,
				MeanTTFBms: float64(res.TTFB.Mean()) / 1e6,
				MeanTTLBms: float64(res.TTLB.Mean()) / 1e6,
			})
		}
	}
	return result, nil
}

// Fig13Row is one sweep point of the scalability experiment.
type Fig13Row struct {
	Processes  int
	MeanTTFBms float64
	P95TTFBms  float64
	MBPerSec   float64
	RPS        float64
	ErrorRate  float64
}

// Fig13Result reproduces Figs 13 and 14 together (the paper plots the same
// sweep twice: TTFB vs processes, then throughput and RPS vs processes).
type Fig13Result struct {
	Rows []Fig13Row
}

// String renders both figures' series.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13/14 — MyStore under increasing request processes\n")
	fmt.Fprintf(&b, "%10s %12s %12s %10s %10s %9s\n",
		"processes", "mean TTFB", "p95 TTFB", "MB/s", "req/s", "err rate")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %10.1fms %10.1fms %10.2f %10.1f %8.1f%%\n",
			row.Processes, row.MeanTTFBms, row.P95TTFBms, row.MBPerSec, row.RPS, row.ErrorRate*100)
	}
	return b.String()
}

// RunFig13 sweeps client-process counts against the full MyStore stack.
func RunFig13(scale Scale) (Fig13Result, error) {
	scale = scale.withDefaults()
	corpus := workload.NewCorpus(workload.ReadCorpusConfig(scale.ReadItems, scale.Seed))
	var result Fig13Result
	sys, err := newMyStoreSystem(paperTier())
	if err != nil {
		return result, err
	}
	defer sys.Close()
	if err := preload(sys.URL(), corpus); err != nil {
		return result, err
	}
	for _, procs := range scale.Processes {
		client := newHTTPClient(procs)
		res := workload.Run(context.Background(), workload.Options{
			Processes: procs,
			Duration:  scale.StepDuration,
			ThinkMin:  0,
			ThinkMax:  20 * time.Millisecond,
			Seed:      scale.Seed + int64(procs),
		}, httpReadOp(client, sys.URL(), func(rng *rand.Rand) workload.Item {
			return corpus.Items[rng.Intn(len(corpus.Items))]
		}))
		totalAttempts := res.Throughput.Ops + res.Throughput.Errors
		errRate := 0.0
		if totalAttempts > 0 {
			errRate = float64(res.Throughput.Errors) / float64(totalAttempts)
		}
		result.Rows = append(result.Rows, Fig13Row{
			Processes:  procs,
			MeanTTFBms: float64(res.TTFB.Mean()) / 1e6,
			P95TTFBms:  float64(res.TTFB.Quantile(0.95)) / 1e6,
			MBPerSec:   res.Throughput.MBPerSec(),
			RPS:        res.Throughput.RPS(),
			ErrorRate:  errRate,
		})
		client.CloseIdleConnections()
	}
	return result, nil
}
