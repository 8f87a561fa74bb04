package nwr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/transport"
)

// coordFor returns the coordinator running at addr.
func (tc *testCluster) coordFor(t *testing.T, addr string) *Coordinator {
	t.Helper()
	for i, a := range tc.addrs {
		if a == addr {
			return tc.coords[i]
		}
	}
	t.Fatalf("no coordinator at %s", addr)
	return nil
}

// nonOwnerCoord returns a coordinator that does not replicate key, so reads
// through it always cross the (latency-modelled) network.
func (tc *testCluster) nonOwnerCoord(t *testing.T, key string) *Coordinator {
	t.Helper()
	owners, _ := tc.ring.Successors(key, 3)
	for i, a := range tc.addrs {
		owner := false
		for _, o := range owners {
			if o == a {
				owner = true
			}
		}
		if !owner {
			return tc.coords[i]
		}
	}
	t.Fatalf("every node replicates %q", key)
	return nil
}

// staleVictim force-overwrites one replica of key with an ancient record and
// returns that replica's coordinator.
func (tc *testCluster) staleVictim(t *testing.T, key string) *Coordinator {
	t.Helper()
	owners, _ := tc.ring.Successors(key, 3)
	victim := tc.coordFor(t, owners[1])
	victim.store.C(RecordCollection).Delete(key) //nolint:errcheck
	if err := victim.ApplyLocal(Record{Key: key, Val: []byte("ancient"), Ver: 1, Origin: "old"}); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestQuorumFirstReturnsBeforeStraggler pins the tentpole behaviour: a read
// settles at R consistent answers and does not wait for slow replicas — the
// straggler feeds background repair instead of the caller's latency.
func TestQuorumFirstReturnsBeforeStraggler(t *testing.T) {
	cfg := defaultCfg()
	cfg.CallTimeout = 2 * time.Second
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()
	key := "qf-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	owners, _ := tc.ring.Successors(key, 3)
	slow := owners[2] // not the R=1 primary: a pure straggler
	tc.net.SetLatencyModel(func(from, to string, _ int) time.Duration {
		if from == slow || to == slow {
			return 800 * time.Millisecond
		}
		return 0
	})
	co := tc.nonOwnerCoord(t, key)
	start := time.Now()
	val, err := co.Get(ctx, key)
	elapsed := time.Since(start)
	if err != nil || string(val) != "v" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("quorum-first read took %v; should not wait for the %v straggler", elapsed, 800*time.Millisecond)
	}
}

// TestHedgedReadSurvivesHangingReplica is the integration half of the hedge:
// with the only primary hung far past CallTimeout, the hedge timer launches
// the reserves and the read completes correctly in a small fraction of
// CallTimeout.
func TestHedgedReadSurvivesHangingReplica(t *testing.T) {
	cfg := defaultCfg()
	cfg.CallTimeout = 2 * time.Second
	cfg.HedgeDelay = 5 * time.Millisecond
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()
	key := "hedge-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	owners, _ := tc.ring.Successors(key, 3)
	hang := owners[0] // the lone R=1 primary
	tc.net.SetLatencyModel(func(from, to string, _ int) time.Duration {
		if from == hang || to == hang {
			return 20 * time.Second // far past CallTimeout: effectively hung
		}
		return 0
	})
	co := tc.nonOwnerCoord(t, key)
	start := time.Now()
	val, err := co.Get(ctx, key)
	elapsed := time.Since(start)
	if err != nil || string(val) != "v" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if elapsed > cfg.CallTimeout/4 {
		t.Fatalf("hedged read took %v with a hanging replica; CallTimeout is %v", elapsed, cfg.CallTimeout)
	}
	if co.Stats().HedgedReads == 0 {
		t.Fatal("hedge timer never launched the reserves")
	}
}

// TestCoalescedConcurrentReads checks the singleflight contract directly:
// concurrent reads of one key share a single replica fan-out generation.
func TestCoalescedConcurrentReads(t *testing.T) {
	cfg := defaultCfg()
	tc := newTestCluster(t, 5, cfg)
	tc.net.SetLatencyModel(transport.ConstantLatency(5 * time.Millisecond))
	ctx := context.Background()
	key := "coalesce-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	co := tc.nonOwnerCoord(t, key)
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if val, err := co.Get(ctx, key); err != nil || string(val) != "v" {
				t.Errorf("Get = %q, %v", val, err)
			}
		}()
	}
	wg.Wait()
	st := co.Stats()
	if st.CoalescedReads == 0 {
		t.Fatal("no concurrent reads coalesced")
	}
	if st.Gets+st.CoalescedReads != readers {
		t.Fatalf("generations (%d) + coalesced (%d) != %d client reads", st.Gets, st.CoalescedReads, readers)
	}
	// Coalescing bounds a hot key's replica fan-outs to O(generations).
	if st.Gets > readers/2 {
		t.Fatalf("%d fan-out generations for %d concurrent reads of one key", st.Gets, readers)
	}
}

// TestCoalescerHammer races GetEx/GetMany/Put over a handful of hot keys from
// every coordinator; run under -race it is the coalescer's data-race gate,
// and it asserts the quorum tripwire stays silent under contention.
func TestCoalescerHammer(t *testing.T) {
	cfg := defaultCfg()
	cfg.CallTimeout = 5 * time.Second
	tc := newTestCluster(t, 5, cfg)
	tc.net.SetLatencyModel(transport.ConstantLatency(time.Millisecond))
	ctx := context.Background()
	hot := []string{"hot-0", "hot-1", "hot-2", "hot-3"}
	for _, k := range hot {
		if err := tc.coords[0].Put(ctx, k, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			co := tc.coords[g%len(tc.coords)]
			for i := 0; i < 40; i++ {
				k := hot[(g+i)%len(hot)]
				switch i % 8 {
				case 0:
					co.Put(ctx, k, []byte(fmt.Sprintf("v-%d-%d", g, i))) //nolint:errcheck
				case 1:
					co.GetMany(ctx, hot) //nolint:errcheck
				default:
					co.GetEx(ctx, k) //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()
	var coalesced int64
	for _, c := range tc.coords {
		st := c.Stats()
		coalesced += st.CoalescedReads
		if st.ReadQuorumViolations != 0 {
			t.Fatalf("%d quorum violations under hammer", st.ReadQuorumViolations)
		}
	}
	if coalesced == 0 {
		t.Fatal("hot-key hammer never coalesced a read")
	}
}

// TestReadRepairSurvivesCallerCancel is the satellite bugfix regression:
// repair runs on a detached context, so cancelling the read's context the
// moment it returns must not abort the repair.
func TestReadRepairSurvivesCallerCancel(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	key := "detach-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	victim := tc.staleVictim(t, key)
	rctx, cancel := context.WithCancel(ctx)
	val, err := tc.coords[0].Get(rctx, key)
	cancel() // caller walks away immediately
	if err != nil || string(val) != "v1" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	waitFor(t, "repair survived caller cancellation", func() bool {
		rec, _, _ := victim.GetLocal(key)
		return string(rec.Val) == "v1"
	})
}

// TestReadRepairDroppedCounter pins the bounded-queue contract: with the
// workers never started and the queue full, further jobs are dropped and
// counted rather than blocking the read path.
func TestReadRepairDroppedCounter(t *testing.T) {
	cfg := defaultCfg()
	cfg.RepairQueue = 2
	tc := newTestCluster(t, 3, cfg)
	c := tc.coords[0]
	c.repairOnce.Do(func() {}) // burn the Once: the queue never drains
	job := repairJob{
		ctx:    context.Background(),
		key:    "k",
		newest: Record{Key: "k", Val: []byte("v"), Ver: 2},
		stale:  []repairTarget{{addr: tc.addrs[1], found: true}},
	}
	for i := 0; i < 4; i++ {
		c.enqueueRepair(job)
	}
	if got := c.Stats().ReadRepairDropped; got != 2 {
		t.Fatalf("ReadRepairDropped = %d, want 2", got)
	}
	if got := c.RepairBacklog(); got != 2 {
		t.Fatalf("RepairBacklog = %d, want 2", got)
	}
}

func TestGetMany(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	var keys []string
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("batch-%d", i)
		keys = append(keys, k)
		if err := tc.coords[0].Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Put returns at W=2; wait out the background third replica so an R=1
	// batched read cannot legitimately catch an unsupplemented replica.
	for _, k := range keys {
		tc.waitReplicas(t, k, 3)
	}
	// Duplicates collapse, missing keys come back as per-key ErrNotFound.
	req := append(append([]string{}, keys...), "batch-missing", keys[0])
	results, err := tc.coords[1].GetMany(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(keys)+1 {
		t.Fatalf("got %d results, want %d", len(results), len(keys)+1)
	}
	byKey := make(map[string]KeyResult, len(results))
	for _, kr := range results {
		byKey[kr.Key] = kr
	}
	for i, k := range keys {
		kr := byKey[k]
		if kr.Err != nil || string(kr.Res.Val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %q = %q, %v", k, kr.Res.Val, kr.Err)
		}
	}
	if kr := byKey["batch-missing"]; !errors.Is(kr.Err, ErrNotFound) {
		t.Fatalf("missing key err = %v, want ErrNotFound", kr.Err)
	}
	if st := tc.coords[1].Stats(); st.BatchGets != 1 {
		t.Fatalf("BatchGets = %d, want 1", st.BatchGets)
	}
}

// TestGetManyRepairsStaleReplica: batched reads feed the same async repair
// path as single-key reads.
func TestGetManyRepairsStaleReplica(t *testing.T) {
	// R=2: with one replica staled, any two answers include a fresh record,
	// so the last-write-wins resolution is deterministic (at R=1 the stale
	// replica answering first would legitimately win the race).
	cfg := defaultCfg()
	cfg.R = 2
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()
	key := "batch-repair-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	victim := tc.staleVictim(t, key)
	results, err := tc.coords[0].GetMany(ctx, []string{key})
	if err != nil || len(results) != 1 || string(results[0].Res.Val) != "v1" {
		t.Fatalf("GetMany = %+v, %v", results, err)
	}
	waitFor(t, "batched read repaired the stale replica", func() bool {
		rec, _, _ := victim.GetLocal(key)
		return string(rec.Val) == "v1"
	})
}
