package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mystore"
	"mystore/internal/metrics"
)

// --- A8: the read path (quorum-first + hedging + coalescing) ---
//
// One replica of a 5-node cluster is made slow (+slowOneWay per message leg)
// and a uniform read load runs against the read path (quorum-first return at
// R, hedged reserves, coalescer). Tail latency is the figure of merit: a
// read that had to wait for the slow replica cannot finish under slowOneWay,
// so a p99 below it shows the path routed around that replica. A separate
// hot-key phase measures the coalescer's RPC bound: concurrent reads of one
// key collapse onto shared replica fan-out generations. The arms this study
// used to compare against (no hedge, no coalescer, the seed's wait-for-all-N
// read) are frozen in EXPERIMENTS.md "Retired baselines".

// slowOneWay is the extra one-way delivery latency of the slow replica.
const slowOneWay = 40 * time.Millisecond

// ReadPathRow measures the read path under one slow replica.
type ReadPathRow struct {
	Config string
	Reads  int
	P50ms  float64
	P95ms  float64
	P99ms  float64
	// HedgedReads counts reserve replica reads launched early (hedge timer
	// or primary failure).
	HedgedReads int64
	Errors      int64
}

// ReadPathHotKey measures the coalescer's fan-out bound under a single-key
// hammer: Generations is the number of replica fan-outs actually run for
// Reads client reads (without coalescing it would equal Reads).
type ReadPathHotKey struct {
	Reads       int64
	Generations int64
	Coalesced   int64
}

// ReadPathAblation is the A8 study.
type ReadPathAblation struct {
	Readers      int
	Corpus       int
	SlowOneWayMs float64
	Row          ReadPathRow
	HotKey       ReadPathHotKey
}

// String renders the study.
func (a ReadPathAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A8 — read path (quorum-first / hedge / coalesce), %d readers, one replica +%.0fms/leg\n",
		a.Readers, a.SlowOneWayMs)
	fmt.Fprintf(&b, "  %-22s %8s %10s %10s %10s %8s %7s\n", "config", "reads", "p50", "p95", "p99", "hedged", "errors")
	row := a.Row
	fmt.Fprintf(&b, "  %-22s %8d %8.2fms %8.2fms %8.2fms %8d %7d\n",
		row.Config, row.Reads, row.P50ms, row.P95ms, row.P99ms, row.HedgedReads, row.Errors)
	fmt.Fprintf(&b, "  hot key: %d reads -> %d replica fan-out generations (%d reads piggybacked)\n",
		a.HotKey.Reads, a.HotKey.Generations, a.HotKey.Coalesced)
	return b.String()
}

// coordStatTotals sums the read-path counters across every node.
func coordStatTotals(cl *mystore.Cluster) (gets, hedged, coalesced int64) {
	for _, node := range cl.Nodes() {
		st := node.Coordinator().Stats()
		gets += st.Gets
		hedged += st.HedgedReads
		coalesced += st.CoalescedReads
	}
	return gets, hedged, coalesced
}

// runReadPathSlowReplica preloads a corpus, slows one replica, and drives
// uniform random reads through the four fast nodes' coordinators.
func runReadPathSlowReplica(corpus, reads, readers int, seed int64) (ReadPathRow, error) {
	// "full" is the row's name in the BENCH_results.json trajectory.
	row := ReadPathRow{Config: "full", Reads: reads}
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
	if err != nil {
		return row, err
	}
	defer cl.Close()
	nodes := cl.Nodes()
	ctx := context.Background()

	keys := make([]string, corpus)
	val := make([]byte, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("rp-%05d", i)
		if err := nodes[0].Coordinator().Put(ctx, keys[i], val); err != nil {
			return row, err
		}
	}
	// Put acks at W; wait out the background third replicas so an R=1 read
	// cannot catch an unsupplemented replica mid-measurement.
	deadline := time.Now().Add(30 * time.Second)
	for _, k := range keys {
		for {
			n := 0
			for _, node := range nodes {
				if _, found, _ := node.Coordinator().GetLocal(k); found {
					n++
				}
			}
			if n >= 3 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One slow replica: every message leg to or from the last node carries
	// the extra delay on top of the LAN base.
	slow := cl.Addrs()[4]
	cl.Network().SetLatencyModel(func(from, to string, _ int) time.Duration {
		if from == slow || to == slow {
			return lanBase + slowOneWay
		}
		return lanBase
	})

	hist := metrics.NewHistogramCap(reads)
	var errs atomic.Int64
	perReader := reads / readers
	if perReader < 1 {
		perReader = 1
	}
	_, hedged0, _ := coordStatTotals(cl)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(r)*104729))
			co := nodes[r%4].Coordinator() // the four fast nodes coordinate
			for i := 0; i < perReader; i++ {
				key := keys[rng.Intn(len(keys))]
				t0 := time.Now()
				if _, err := co.Get(ctx, key); err != nil {
					errs.Add(1)
				} else {
					hist.Observe(time.Since(t0))
				}
			}
		}(r)
	}
	wg.Wait()
	_, hedged1, _ := coordStatTotals(cl)

	row.Reads = readers * perReader
	row.P50ms = float64(hist.Quantile(0.50)) / 1e6
	row.P95ms = float64(hist.Quantile(0.95)) / 1e6
	row.P99ms = float64(hist.Quantile(0.99)) / 1e6
	row.HedgedReads = hedged1 - hedged0
	row.Errors = errs.Load()
	return row, nil
}

// runReadPathHotKey hammers a single key with concurrent readers through one
// coordinator and reports how many replica fan-out generations served them.
func runReadPathHotKey(reads, readers int) (ReadPathHotKey, error) {
	var hk ReadPathHotKey
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
	if err != nil {
		return hk, err
	}
	defer cl.Close()
	// Latency long enough that a fan-out generation is in flight while the
	// next wave of readers arrives — the window coalescing exploits.
	cl.Network().SetLatencyModel(func(_, _ string, _ int) time.Duration { return time.Millisecond })
	ctx := context.Background()
	nodes := cl.Nodes()
	const key = "hot-key"
	if err := nodes[0].Coordinator().Put(ctx, key, []byte("hot")); err != nil {
		return hk, err
	}
	gets0, _, coalesced0 := coordStatTotals(cl)
	perReader := reads / readers
	if perReader < 1 {
		perReader = 1
	}
	co := nodes[0].Coordinator()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				co.Get(ctx, key) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	gets1, _, coalesced1 := coordStatTotals(cl)
	hk.Reads = int64(readers * perReader)
	hk.Generations = gets1 - gets0
	hk.Coalesced = coalesced1 - coalesced0
	return hk, nil
}

// RunReadPathAblation runs the A8 study.
func RunReadPathAblation(scale Scale) (ReadPathAblation, error) {
	scale = scale.withDefaults()
	a := ReadPathAblation{
		Readers:      32,
		Corpus:       scale.ReadItems / 3,
		SlowOneWayMs: float64(slowOneWay) / 1e6,
	}
	if a.Corpus < 40 {
		a.Corpus = 40
	}
	reads := scale.ReadItems * 4
	var err error
	if a.Row, err = runReadPathSlowReplica(a.Corpus, reads, a.Readers, scale.Seed); err != nil {
		return a, err
	}
	if a.HotKey, err = runReadPathHotKey(reads, a.Readers); err != nil {
		return a, err
	}
	return a, nil
}
