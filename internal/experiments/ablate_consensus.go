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

// --- A11: the CP replication tier (per-range consensus + leader leases) ---
//
// The same 5-node cluster serves both tiers, and the same client drives the
// same write load through each: eventual quorum puts (W acks, hints on
// failure) against strong puts (replicated through the range's consensus
// log, acked at majority commit). The cost of linearizability is the figure
// of merit: strong writes pay a log append plus a majority round trip and
// should land within ~2x of eventual writes, not an order of magnitude.
//
// The read phase measures what the leases buy: a strong read served on the
// range's leaseholder touches no peer (a lease check plus a local read),
// while an eventual quorum read pays R replica round trips over the LAN
// model. A client-routed strong read adds one client->leader hop.
//
// The failover phase kills a range's leader outright (kill -9, no goodbye)
// with acked strong writes in its log, then measures how long strong
// writes to that range stay unavailable: the next election plus the new
// leader's no-op barrier. Downtime is reported in election timeouts; every
// write acked before the kill must still be readable after it.

// ConsensusWriteRow measures one write configuration.
type ConsensusWriteRow struct {
	Config     string
	Writes     int
	P50ms      float64
	P95ms      float64
	PutsPerSec float64
	Errors     int64
}

// ConsensusReadRow measures one read configuration.
type ConsensusReadRow struct {
	Config string
	Reads  int
	P50ms  float64
	P95ms  float64
	Errors int64
}

// ConsensusFailover measures strong-write availability across a leader kill.
type ConsensusFailover struct {
	ElectionTimeoutMs float64
	// DowntimeMs is the gap from the kill to the first strong write acked
	// by the range's new leader.
	DowntimeMs float64
	// DowntimeETs is the same gap in election timeouts (acceptance: < 10).
	DowntimeETs float64
	// AckedBeforeKill strong writes were in the dead leader's log; Lost
	// counts those unreadable after failover (must be 0).
	AckedBeforeKill int
	Lost            int
}

// ConsensusAblation is the A11 study.
type ConsensusAblation struct {
	Writers  int
	Writes   []ConsensusWriteRow
	Reads    []ConsensusReadRow
	Failover ConsensusFailover
}

// String renders the study.
func (a ConsensusAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A11 — CP tier (per-range consensus + leader leases), %d writers\n", a.Writers)
	fmt.Fprintf(&b, "  %-24s %8s %10s %10s %12s %7s\n", "write config", "writes", "p50", "p95", "puts/s", "errors")
	for _, row := range a.Writes {
		fmt.Fprintf(&b, "  %-24s %8d %8.2fms %8.2fms %12.0f %7d\n",
			row.Config, row.Writes, row.P50ms, row.P95ms, row.PutsPerSec, row.Errors)
	}
	fmt.Fprintf(&b, "  %-24s %8s %10s %10s\n", "read config", "reads", "p50", "p95")
	for _, row := range a.Reads {
		fmt.Fprintf(&b, "  %-24s %8d %8.2fms %8.2fms\n", row.Config, row.Reads, row.P50ms, row.P95ms)
	}
	f := a.Failover
	fmt.Fprintf(&b, "  failover: leader killed with %d acked strong writes; strong writes back in %.0fms (%.1f election timeouts), %d lost\n",
		f.AckedBeforeKill, f.DowntimeMs, f.DowntimeETs, f.Lost)
	return b.String()
}

// consensusET is the election timeout the study runs at; failover downtime
// is reported as a multiple of it.
const consensusET = 150 * time.Millisecond

func consensusClusterOptions() mystore.ClusterOptions {
	return mystore.ClusterOptions{
		Nodes:                 5,
		LatencyBase:           lanBase,
		Bandwidth:             lanBandwidth,
		StrongRanges:          4,
		StrongElectionTimeout: consensusET,
	}
}

// runConsensusWrites drives writes writes through put, writers at a time,
// and returns the latency row.
func runConsensusWrites(name string, writes, writers int, put func(ctx context.Context, key string, val []byte) error) ConsensusWriteRow {
	row := ConsensusWriteRow{Config: name}
	hist := metrics.NewHistogramCap(writes)
	var errs atomic.Int64
	perWriter := writes / writers
	if perWriter < 1 {
		perWriter = 1
	}
	ctx := context.Background()
	val := []byte("consensus-ablation-value")
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%s-%d-%05d", name[:2], w, i)
				t0 := time.Now()
				if err := put(ctx, key, val); err != nil {
					errs.Add(1)
				} else {
					hist.Observe(time.Since(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	row.Writes = writers * perWriter
	row.P50ms = float64(hist.Quantile(0.50)) / 1e6
	row.P95ms = float64(hist.Quantile(0.95)) / 1e6
	if elapsed > 0 {
		row.PutsPerSec = float64(row.Writes) / elapsed
	}
	row.Errors = errs.Load()
	return row
}

// runConsensusReads measures reads of preloaded keys through get.
func runConsensusReads(name string, keys []string, rounds int, seed int64, get func(ctx context.Context, key string) error) ConsensusReadRow {
	row := ConsensusReadRow{Config: name}
	hist := metrics.NewHistogramCap(rounds)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	var errs int64
	for i := 0; i < rounds; i++ {
		key := keys[rng.Intn(len(keys))]
		t0 := time.Now()
		if err := get(ctx, key); err != nil {
			errs++
		} else {
			hist.Observe(time.Since(t0))
		}
	}
	row.Reads = rounds
	row.P50ms = float64(hist.Quantile(0.50)) / 1e6
	row.P95ms = float64(hist.Quantile(0.95)) / 1e6
	row.Errors = errs
	return row
}

// leaderFor returns the node currently leading key's range, or nil.
func leaderFor(cl *mystore.Cluster, key string) *mystore.Node {
	for _, node := range cl.Nodes() {
		if cns := node.Consensus(); cns != nil && cns.LeadsKey(key) {
			return node
		}
	}
	return nil
}

// runConsensusFailover kills the leader of a loaded range and measures the
// strong-write outage plus durability of the writes acked before the kill.
func runConsensusFailover(scale Scale) (ConsensusFailover, error) {
	f := ConsensusFailover{ElectionTimeoutMs: float64(consensusET) / 1e6}
	cl, err := mystore.StartCluster(consensusClusterOptions())
	if err != nil {
		return f, err
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		return f, err
	}
	ctx := context.Background()

	// Find a key whose range leader is not node 0 (the client's bootstrap
	// contact survives, like chaos keeps its seed node up), and load the
	// leader's log with acked strong writes the failover must preserve.
	var probe string
	var victim int
	for k := 0; victim == 0 && k < 256; k++ {
		probe = fmt.Sprintf("fo-probe-%d", k)
		if err := client.StrongPut(ctx, probe, []byte("x")); err != nil {
			return f, err
		}
		for i, node := range cl.Nodes() {
			if i > 0 && node.Consensus().LeadsKey(probe) {
				victim = i
			}
		}
	}
	if victim == 0 {
		return f, fmt.Errorf("no range led away from node 0 after 256 probes")
	}
	n := scale.ReadItems / 2
	if n < 20 {
		n = 20
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fo-%s-%05d", probe, i)
		if err := client.StrongPut(ctx, keys[i], []byte(keys[i])); err != nil {
			return f, err
		}
	}
	f.AckedBeforeKill = len(keys) + 1

	if err := cl.KillNode(victim); err != nil {
		return f, err
	}
	killed := time.Now()

	// Strong writes to the dead leader's range stall until a successor wins
	// the election and commits its no-op barrier; measure the gap to the
	// first post-kill ack.
	deadline := killed.Add(30 * consensusET)
	for {
		opCtx, cancel := context.WithTimeout(ctx, 5*consensusET)
		err := client.StrongPut(opCtx, probe, []byte("post-failover"))
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("strong writes still unavailable %v after leader kill: %v", time.Since(killed), err)
		}
	}
	down := time.Since(killed)
	f.DowntimeMs = float64(down) / 1e6
	f.DowntimeETs = float64(down) / float64(consensusET)

	for _, k := range keys {
		got, err := client.StrongGet(ctx, k)
		// The keys spread over every range the victim led, and only the
		// probe's has been waited for: an error while another one elects is
		// downtime, not loss.
		for err != nil && time.Now().Before(deadline) {
			got, err = client.StrongGet(ctx, k)
		}
		if err != nil || string(got) != k {
			f.Lost++
		}
	}
	return f, nil
}

// RunConsensusAblation runs the A11 study.
func RunConsensusAblation(scale Scale) (ConsensusAblation, error) {
	scale = scale.withDefaults()
	a := ConsensusAblation{Writers: 8}
	writes := scale.ReadItems * 2

	cl, err := mystore.StartCluster(consensusClusterOptions())
	if err != nil {
		return a, err
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		return a, err
	}
	ctx := context.Background()

	// Warm every range's election before timing anything: the lazy first
	// proposal of each range pays the initial election, which is failover
	// cost (measured below), not steady-state write cost.
	for i := 0; i < 64; i++ {
		if err := client.StrongPut(ctx, fmt.Sprintf("warm-%d", i), []byte("w")); err != nil {
			return a, err
		}
	}

	a.Writes = append(a.Writes,
		runConsensusWrites("eventual (quorum W)", writes, a.Writers, client.Put),
		runConsensusWrites("strong (consensus)", writes, a.Writers, client.StrongPut),
	)

	// Each tier reads its own corpus: strong-written keys live on their
	// range's consensus replicas (lease-readable on the leader), eventual
	// keys on their per-key NWR owner set (quorum-readable) — the rows
	// compare path cost, not cross-tier placement.
	n := scale.ReadItems
	if n < 40 {
		n = 40
	}
	strongKeys := make([]string, n)
	eventualKeys := make([]string, n)
	for i := range strongKeys {
		strongKeys[i] = fmt.Sprintf("rd-strong-%05d", i)
		if err := client.StrongPut(ctx, strongKeys[i], []byte("read-corpus")); err != nil {
			return a, err
		}
		eventualKeys[i] = fmt.Sprintf("rd-ev-%05d", i)
		if err := client.Put(ctx, eventualKeys[i], []byte("read-corpus")); err != nil {
			return a, err
		}
	}
	rounds := scale.ReadItems * 4
	a.Reads = append(a.Reads,
		runConsensusReadRowLocal(cl, strongKeys, rounds, scale.Seed),
		runConsensusReads("strong via client", strongKeys, rounds, scale.Seed+1, func(ctx context.Context, key string) error {
			_, err := client.StrongGet(ctx, key)
			return err
		}),
		runConsensusReads("eventual quorum (R)", eventualKeys, rounds, scale.Seed+2, func(ctx context.Context, key string) error {
			_, err := client.Get(ctx, key)
			return err
		}),
	)

	a.Failover, err = runConsensusFailover(scale)
	return a, err
}

// runConsensusReadRowLocal measures strong reads issued directly on each
// key's leaseholder — the no-RPC path the leases exist for.
func runConsensusReadRowLocal(cl *mystore.Cluster, keys []string, rounds int, seed int64) ConsensusReadRow {
	return runConsensusReads("strong leader-local", keys, rounds, seed, func(ctx context.Context, key string) error {
		leader := leaderFor(cl, key)
		if leader == nil {
			return fmt.Errorf("no leader for %s", key)
		}
		_, err := leader.StrongGet(ctx, key)
		return err
	})
}
