package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mystore"
	"mystore/internal/faults"
	"mystore/internal/workload"
)

// ContextResult reproduces §6.1's scalar context numbers: the bulk-load
// throughput (paper: ~6 MB/s), the steady read throughput (~11 MB/s) and
// request rate (236 req/s at 125 offered req/s).
type ContextResult struct {
	LoadMBPerSec float64
	ReadMBPerSec float64
	ReadRPS      float64
}

// String renders the scalars.
func (r ContextResult) String() string {
	return fmt.Sprintf("§6.1 context — bulk load %.2f MB/s; steady read %.2f MB/s at %.1f req/s\n",
		r.LoadMBPerSec, r.ReadMBPerSec, r.ReadRPS)
}

// RunContext measures the bulk-load and steady-read scalars on the full
// MyStore stack.
func RunContext(scale Scale) (ContextResult, error) {
	scale = scale.withDefaults()
	var result ContextResult
	sys, err := newMyStoreSystem(paperTier())
	if err != nil {
		return result, err
	}
	defer sys.Close()
	corpus := workload.NewCorpus(workload.ReadCorpusConfig(scale.ReadItems, scale.Seed))

	// Bulk load through the REST interface, 8 concurrent loaders.
	client := newHTTPClient(scale.LoadProcesses)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	itemCh := make(chan workload.Item, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range itemCh {
				resp, err := client.Post(sys.URL()+"/data/"+it.Key, "application/octet-stream",
					bytes.NewReader(it.Payload()))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	for _, it := range corpus.Items {
		itemCh <- it
	}
	close(itemCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return result, err
	default:
	}
	result.LoadMBPerSec = float64(corpus.TotalBytes()) / 1e6 / time.Since(start).Seconds()

	// Steady read.
	res := workload.Run(context.Background(), workload.Options{
		Processes: scale.LoadProcesses,
		Duration:  scale.StepDuration,
		Seed:      scale.Seed,
	}, httpReadOp(client, sys.URL(), func(rng *rand.Rand) workload.Item {
		return corpus.Items[rng.Intn(len(corpus.Items))]
	}))
	result.ReadMBPerSec = res.Throughput.MBPerSec()
	result.ReadRPS = res.Throughput.RPS()
	return result, nil
}

// SoakResult is the shortened stand-in for the paper's 7×24h stability run:
// mixed CRUD under Table 2 faults and membership churn, with invariants
// checked continuously.
type SoakResult struct {
	Duration    time.Duration
	Ops         int64
	Failures    int64
	Violations  int64
	FaultsFired map[faults.Kind]int64
	ChurnEvents int
}

// String summarizes the run.
func (r SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.1 soak — %v of mixed CRUD under faults and churn\n", r.Duration.Round(time.Second))
	fmt.Fprintf(&b, "  ops %d, op failures %d (%.2f%%), churn events %d\n",
		r.Ops, r.Failures, 100*float64(r.Failures)/float64(max64(r.Ops, 1)), r.ChurnEvents)
	fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d (acked writes must stay readable)\n", r.Violations)
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RunSoak drives the soak for roughly 4x the step duration.
func RunSoak(scale Scale) (SoakResult, error) {
	scale = scale.withDefaults()
	result := SoakResult{Duration: 4 * scale.StepDuration}
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes: 5, LatencyBase: lanBase / 4, Bandwidth: lanBandwidth,
	})
	if err != nil {
		return result, err
	}
	defer cl.Close()
	// Short-failure-only plan: the soak's churn injects its own outages.
	inj := faults.NewInjector(faults.Plan{
		faults.NetworkException: 0.05,
		faults.DiskIOError:      0.002,
		faults.BlockingProcess:  0.002,
	}, scale.Seed)
	inj.BlockDelay = 2 * time.Millisecond
	inj.NetworkDelay = 2 * time.Millisecond // keep the short soak moving
	wireFaults(cl, inj, newDisks(5, diskSeek/4))
	client, err := cl.Client()
	if err != nil {
		return result, err
	}

	// Acked-write ledger for the invariant check.
	var mu sync.Mutex
	acked := map[string][]byte{}

	ctx, cancel := context.WithTimeout(context.Background(), result.Duration)
	defer cancel()

	// Churn goroutine: periodically bounce a node (short failures).
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		rng := rand.New(rand.NewSource(scale.Seed * 3))
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(result.Duration / 6):
			}
			victim := 1 + rng.Intn(4) // never the seed
			cl.StopNode(victim)
			result.ChurnEvents++
			select {
			case <-ctx.Done():
				cl.RestartNode(victim)
				return
			case <-time.After(result.Duration / 12):
			}
			cl.RestartNode(victim)
			result.ChurnEvents++
		}
	}()

	res := workload.Run(ctx, workload.Options{
		Processes: scale.LoadProcesses / 4,
		Duration:  result.Duration,
		ThinkMin:  0,
		ThinkMax:  2 * time.Millisecond,
		Seed:      scale.Seed,
	}, func(ctx context.Context, rng *rand.Rand) workload.OpResult {
		switch rng.Intn(10) {
		case 0, 1, 2: // write
			key := fmt.Sprintf("soak-%06d", rng.Intn(2000))
			val := []byte(fmt.Sprintf("v-%d", rng.Int63()))
			if err := client.Put(ctx, key, val); err != nil {
				return workload.OpResult{Err: err}
			}
			mu.Lock()
			acked[key] = val
			mu.Unlock()
			return workload.OpResult{Bytes: len(val)}
		case 3: // delete
			key := fmt.Sprintf("soak-%06d", rng.Intn(2000))
			if err := client.Delete(ctx, key); err != nil {
				return workload.OpResult{Err: err}
			}
			mu.Lock()
			delete(acked, key)
			mu.Unlock()
			return workload.OpResult{Bytes: 0}
		default: // read + invariant check
			mu.Lock()
			var key string
			for k := range acked {
				key = k
				break
			}
			mu.Unlock()
			if key == "" {
				return workload.OpResult{Bytes: 0}
			}
			val, err := client.Get(ctx, key)
			if err != nil {
				// Reads may fail transiently under churn (quorum loss); a
				// failure is an availability event, not a correctness
				// violation. A success returning stale/garbage is.
				return workload.OpResult{Err: err}
			}
			if len(val) == 0 || val[0] != 'v' {
				mu.Lock()
				result.Violations++
				mu.Unlock()
			}
			return workload.OpResult{Bytes: len(val)}
		}
	})
	<-churnDone
	result.Ops = res.Throughput.Ops
	result.Failures = res.Throughput.Errors
	result.FaultsFired = inj.Counts()
	return result, nil
}
