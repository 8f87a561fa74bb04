package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"mystore"
	"mystore/internal/bson"
	"mystore/internal/faults"
	"mystore/internal/metrics"
	"mystore/internal/workload"
)

// Fig15Result reproduces Fig 15: the replica balance census after loading
// the put corpus with N = 3 on five nodes.
type Fig15Result struct {
	Records   int
	PerNode   []int
	Total     int
	SpreadPct float64 // (max-min)/ideal
}

// String renders the per-node census.
func (r Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15 — records in nodes after %d puts with N=3 (expect ~%d per node)\n",
		r.Records, r.Records*3/len(r.PerNode))
	for i, n := range r.PerNode {
		fmt.Fprintf(&b, "  node-%d: %6d replicas\n", i, n)
	}
	fmt.Fprintf(&b, "  total:  %6d (want %d); spread (max-min)/ideal = %.1f%%\n",
		r.Total, r.Records*3, r.SpreadPct)
	return b.String()
}

// RunFig15 loads the corpus and counts replicas per node.
func RunFig15(scale Scale) (Fig15Result, error) {
	scale = scale.withDefaults()
	var result Fig15Result
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
	if err != nil {
		return result, err
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		return result, err
	}
	ctx := context.Background()
	// Balance depends on key placement, not payload size: store the
	// corpus's keys with small bodies so the census runs at full speed.
	for i := 0; i < scale.PutItems; i++ {
		if err := client.Put(ctx, fmt.Sprintf("record-%07d", i), []byte("x")); err != nil {
			return result, err
		}
	}
	result.Records = scale.PutItems
	// Puts return at the W quorum; wait for the trailing replications.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, node := range cl.Nodes() {
			total += node.Store().C("records").Len()
		}
		if total >= scale.PutItems*3 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	min, max := 1<<31, 0
	for _, node := range cl.Nodes() {
		n := node.Store().C("records").Len()
		result.PerNode = append(result.PerNode, n)
		result.Total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	ideal := float64(result.Records*3) / float64(len(result.PerNode))
	result.SpreadPct = float64(max-min) / ideal * 100
	return result, nil
}

// Fig16Result reproduces Fig 16: successful Puts per second over time,
// no-fault vs fault.
type Fig16Result struct {
	BucketSeconds   float64
	NoFault         []int64
	Fault           []int64
	NoFaultMeanHits float64
	FaultMeanHits   float64
	FaultCounts     map[faults.Kind]int64
}

// String renders the two series side by side.
func (r Fig16Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16 — successful Puts per second, no-fault vs fault (Table 2 probabilities)\n")
	fmt.Fprintf(&b, "%6s %12s %12s\n", "t(s)", "no-fault", "fault")
	n := len(r.NoFault)
	if len(r.Fault) > n {
		n = len(r.Fault)
	}
	for i := 0; i < n; i++ {
		var a, c int64
		if i < len(r.NoFault) {
			a = r.NoFault[i]
		}
		if i < len(r.Fault) {
			c = r.Fault[i]
		}
		fmt.Fprintf(&b, "%6d %12d %12d\n", i, a, c)
	}
	fmt.Fprintf(&b, "mean hits/s: no-fault %.1f, fault %.1f (fault/no-fault = %.2f)\n",
		r.NoFaultMeanHits, r.FaultMeanHits, r.FaultMeanHits/r.NoFaultMeanHits)
	if len(r.FaultCounts) > 0 {
		fmt.Fprintf(&b, "injected faults:")
		for _, k := range []faults.Kind{faults.NetworkException, faults.DiskIOError, faults.BlockingProcess, faults.NodeBreakdown} {
			if c := r.FaultCounts[k]; c > 0 {
				fmt.Fprintf(&b, " %s=%d", k, c)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RunFig16 runs timed Put streams against a no-fault and a fault cluster.
func RunFig16(scale Scale) (Fig16Result, error) {
	scale = scale.withDefaults()
	var result Fig16Result
	corpus := workload.NewCorpus(workload.PutCorpusConfig(500, scale.Seed))
	duration := scale.StepDuration * 3

	runArm := func(inj *faults.Injector) ([]int64, float64, error) {
		cl, client, err := startLANCluster(inj)
		if err != nil {
			return nil, 0, err
		}
		defer cl.Close()
		picker := workload.NewGaussianPicker(corpus, scale.Seed)
		series := metrics.NewTimeSeries(time.Now(), time.Second)
		ctx := context.Background()
		res := workload.Run(ctx, workload.Options{
			Processes: scale.LoadProcesses / 4,
			Duration:  duration,
			Seed:      scale.Seed,
		}, func(ctx context.Context, rng *rand.Rand) workload.OpResult {
			it := picker.Pick()
			key := fmt.Sprintf("%s-%d", it.Key, rng.Int63())
			if err := client.Put(ctx, key, it.Payload()); err != nil {
				return workload.OpResult{Err: err}
			}
			series.Record(time.Now())
			return workload.OpResult{Bytes: it.Size}
		})
		mean := res.Throughput.RPS()
		return series.Buckets(), mean, nil
	}

	var err error
	result.BucketSeconds = 1
	if result.NoFault, result.NoFaultMeanHits, err = runArm(nil); err != nil {
		return result, err
	}
	inj := faults.NewInjector(faults.PaperTable2(), scale.Seed)
	if result.Fault, result.FaultMeanHits, err = runArm(inj); err != nil {
		return result, err
	}
	result.FaultCounts = inj.Counts()
	return result, nil
}

// Fig17Thresholds are the consuming-time bins the cumulative counts are
// reported at.
var Fig17Thresholds = []time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second,
}

// Fig17Result reproduces Fig 17: how many Puts complete within each
// consuming time, across three arms.
type Fig17Result struct {
	Ops            int
	Thresholds     []time.Duration
	MyStoreNoFault []int
	MyStoreFault   []int
	MasterSlave    []int
}

// String renders the cumulative table.
func (r Fig17Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17 — Puts completing within t (of %d), three systems\n", r.Ops)
	fmt.Fprintf(&b, "%10s %16s %14s %18s\n", "t", "MyStore no-fault", "MyStore fault", "MongoDB m/s fault")
	for i, th := range r.Thresholds {
		fmt.Fprintf(&b, "%10s %16d %14d %18d\n", th, r.MyStoreNoFault[i], r.MyStoreFault[i], r.MasterSlave[i])
	}
	return b.String()
}

// RunFig17 measures the Put consuming-time distribution for the three arms.
func RunFig17(scale Scale) (Fig17Result, error) {
	scale = scale.withDefaults()
	result := Fig17Result{Thresholds: Fig17Thresholds}
	corpus := workload.NewCorpus(workload.PutCorpusConfig(500, scale.Seed))
	ops := scale.PutItems

	runMyStoreArm := func(inj *faults.Injector) ([]int, error) {
		cl, client, err := startLANCluster(inj)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		hist := putLatencies(client.Put, corpus, scale, ops)
		return hist.CumulativeWithin(Fig17Thresholds), nil
	}

	var err error
	if result.MyStoreNoFault, err = runMyStoreArm(nil); err != nil {
		return result, err
	}
	if result.MyStoreFault, err = runMyStoreArm(faults.NewInjector(faults.PaperTable2(), scale.Seed)); err != nil {
		return result, err
	}
	if result.MasterSlave, err = runMasterSlaveArm(corpus, scale, ops); err != nil {
		return result, err
	}
	result.Ops = ops
	return result, nil
}

// putLatencies drives ops puts through put and returns the latency
// histogram of operations that ultimately succeeded (failed quorums are
// retried by the client up to three times, their total time counted — the
// paper measures "the consuming time of every Put operation").
func putLatencies(put func(context.Context, string, []byte) error, corpus *workload.Corpus, scale Scale, ops int) *workload.Histogram {
	picker := workload.NewGaussianPicker(corpus, scale.Seed)
	hist := workload.NewHistogram()
	// Eight closed-loop writers: enough concurrency to exercise queueing
	// without the client loop itself dominating the latency distribution.
	procs := scale.LoadProcesses / 8
	if procs < 1 {
		procs = 1
	}
	workload.Run(context.Background(), workload.Options{
		Processes: procs,
		Requests:  ops,
		Seed:      scale.Seed,
	}, func(ctx context.Context, rng *rand.Rand) workload.OpResult {
		it := picker.Pick()
		key := fmt.Sprintf("%s-%d", it.Key, rng.Int63())
		payload := it.Payload()
		start := time.Now()
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = put(ctx, key, payload); err == nil {
				break
			}
			time.Sleep(25 * time.Millisecond) // driver autoconnectretry backoff
		}
		if err != nil {
			return workload.OpResult{Err: err}
		}
		hist.Observe(time.Since(start))
		return workload.OpResult{Bytes: it.Size}
	})
	return hist
}

// runMasterSlaveArm is the paper's comparator: the document store in plain
// master/slave mode (three nodes) under the same fault plan, with the
// client retrying through master unavailability. Master/slave mode has no
// automatic failover, so a node-breakdown fault on the master would end
// the experiment with every remaining write lost; a watchdog models the
// operator-assisted recovery a production deployment relies on, restoring
// a broken node after two seconds. MyStore's arms need no such watchdog —
// that asymmetry is the availability gap the paper measures.
func runMasterSlaveArm(corpus *workload.Corpus, scale Scale, ops int) ([]int, error) {
	rs, err := newMasterSlave(2)
	if err != nil {
		return nil, err
	}
	defer rs.Close()

	inj := faults.NewInjector(faults.PaperTable2(), scale.Seed+1)
	disks := newDisks(3, diskSeek)
	var currentSize atomic.Int64
	rs.beforeOp = func(node int, kind string) error {
		size := int(currentSize.Load())
		// Every node-level operation pays one LAN hop (client→master or
		// master→slave), the same wire model the MyStore arms run on.
		time.Sleep(lanBase + time.Duration(float64(size)/lanBandwidth*float64(time.Second)))
		disks[node].Access(size)
		_, err := inj.Roll(fmt.Sprintf("ms-%d", node))
		return err
	}

	// Operator watchdog: recover any broken-down node after two seconds.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go func() {
		downSince := map[string]time.Time{}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-watchCtx.Done():
				return
			case now := <-t.C:
				for i := 0; i < 3; i++ {
					node := fmt.Sprintf("ms-%d", i)
					if !inj.IsDown(node) {
						delete(downSince, node)
						continue
					}
					since, seen := downSince[node]
					if !seen {
						downSince[node] = now
						continue
					}
					if now.Sub(since) >= 2*time.Second {
						inj.Recover(node)
						delete(downSince, node)
						rs.CatchUp()
					}
				}
			}
		}
	}()

	put := func(ctx context.Context, key string, val []byte) error {
		currentSize.Store(int64(len(val)))
		doc := bson.D{
			{Key: "_id", Value: key},
			{Key: "self-key", Value: key},
			{Key: "val", Value: val},
		}
		return rs.Put(doc)
	}
	hist := putLatencies(put, corpus, scale, ops)
	return hist.CumulativeWithin(Fig17Thresholds), nil
}
