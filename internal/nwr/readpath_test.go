package nwr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
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

// readPaths are the two entry points of the one read path, reading one key.
var readPaths = []struct {
	name string
	read func(ctx context.Context, co *Coordinator, key string) ([]byte, error)
}{
	{"Get", func(ctx context.Context, co *Coordinator, key string) ([]byte, error) {
		return co.Get(ctx, key)
	}},
	{"GetMany", func(ctx context.Context, co *Coordinator, key string) ([]byte, error) {
		res, err := co.GetMany(ctx, []string{key})
		if err != nil {
			return nil, err
		}
		return res[0].Val, res[0].Err
	}},
}

// TestHedgedReadSurvivesHangingReplica is the integration half of the hedge:
// with the only primary hung far past CallTimeout, the hedge timer (a fresh
// coordinator's adaptive delay, the 1ms floor) launches the reserves and the
// read — single or batched — completes correctly in a small fraction of
// CallTimeout.
func TestHedgedReadSurvivesHangingReplica(t *testing.T) {
	for _, rd := range readPaths {
		t.Run(rd.name, func(t *testing.T) {
			cfg := defaultCfg()
			cfg.CallTimeout = 2 * time.Second
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
			val, err := rd.read(ctx, co, key)
			elapsed := time.Since(start)
			if err != nil || string(val) != "v" {
				t.Fatalf("read = %q, %v", val, err)
			}
			if elapsed > cfg.CallTimeout/4 {
				t.Fatalf("hedged read took %v with a hanging replica; CallTimeout is %v", elapsed, cfg.CallTimeout)
			}
			if co.Stats().HedgedReads == 0 {
				t.Fatal("hedge timer never launched the reserves")
			}
		})
	}
}

// TestReadsPreferPrimaries: Get and GetMany both settle on the key's primary
// at R=1, so a reserve that missed the write cannot answer "not found" for a
// key the primary holds, however fast it answers. The hedge delay is pinned
// high, so the reserves launch only once the primary has answered.
func TestReadsPreferPrimaries(t *testing.T) {
	for _, rd := range readPaths {
		t.Run(rd.name, func(t *testing.T) {
			tc := newTestCluster(t, 5, defaultCfg())
			ctx := context.Background()
			key := "primary-key"
			if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			tc.waitReplicas(t, key, 3)
			owners, _ := tc.ring.Successors(key, 3)
			// owners[2] missed the write and answers instantly; owners[1]
			// holds it 5ms away; the primary is 20ms away.
			tc.coordFor(t, owners[2]).store.C(RecordCollection).Delete(key) //nolint:errcheck
			tc.net.SetLatencyModel(func(from, to string, _ int) time.Duration {
				switch owners[0] {
				case from, to:
					return 20 * time.Millisecond
				}
				switch owners[1] {
				case from, to:
					return 5 * time.Millisecond
				}
				return 0
			})
			co := tc.nonOwnerCoord(t, key)
			for i := 0; i < 100; i++ {
				co.GetLatency().ObserveDuration(time.Second)
			}
			val, err := rd.read(ctx, co, key)
			if err != nil || string(val) != "v" {
				t.Fatalf("read = %q, %v; want the primary's \"v\"", val, err)
			}
		})
	}
}

// TestHotKeyHammer races Get/GetMany/Put over a handful of hot keys from
// every coordinator; run under -race it is the read path's data-race gate,
// and it asserts the quorum tripwire stays silent under contention.
func TestHotKeyHammer(t *testing.T) {
	cfg := defaultCfg()
	cfg.CallTimeout = 5 * time.Second
	tc := newTestCluster(t, 5, cfg)
	tc.net.SetLatencyModel(func(string, string, int) time.Duration { return time.Millisecond })
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
					co.Get(ctx, k) //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range tc.coords {
		if st := c.Stats(); st.ReadQuorumViolations != 0 {
			t.Fatalf("%d quorum violations under hammer", st.ReadQuorumViolations)
		}
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
	tc := newTestCluster(t, 3, defaultCfg())
	c := tc.coords[0]
	c.repairOnce.Do(func() {}) // burn the Once: the queue never drains
	job := repairJob{
		ctx:    context.Background(),
		key:    "k",
		newest: Record{Key: "k", Val: []byte("v"), Ver: 2},
		stale:  []replicaAnswer{{target: tc.addrs[1], found: true}},
	}
	for i := 0; i < repairQueue+2; i++ {
		c.enqueueRepair(job)
	}
	if got := c.Stats().ReadRepairDropped; got != 2 {
		t.Fatalf("ReadRepairDropped = %d, want 2", got)
	}
	if got := c.RepairBacklog(); got != repairQueue {
		t.Fatalf("RepairBacklog = %d, want %d", got, repairQueue)
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
		if kr.Err != nil || string(kr.Val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %q = %q, %v", k, kr.Val, kr.Err)
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
	// R=2 makes the staled replica (owners[1]) a primary, so the batch's
	// answer is resolved last-write-wins between a fresh and a stale record.
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
	if err != nil || len(results) != 1 || string(results[0].Val) != "v1" {
		t.Fatalf("GetMany = %+v, %v", results, err)
	}
	waitFor(t, "batched read repaired the stale replica", func() bool {
		rec, _, _ := victim.GetLocal(key)
		return string(rec.Val) == "v1"
	})
}

// servedRead is one nwr.get.replica a node served: its form and the keys
// asked.
type servedRead struct {
	node   string
	digest bool
	keys   []string
}

// logReplicaReads wraps every node's handler so it logs each
// nwr.get.replica it serves. refuse, when non-nil, fails a read it matches.
func (tc *testCluster) logReplicaReads(refuse func(servedRead) bool) (log func() []servedRead) {
	var mu sync.Mutex
	var served []servedRead
	for i, ep := range tc.eps {
		node, coord := tc.addrs[i], tc.coords[i]
		ep.SetHandler(func(ctx context.Context, msg transport.Message) (bson.D, error) {
			if msg.Type == MsgGetReplica {
				d, _ := msg.Body.Get("digest")
				r := servedRead{node: node, digest: d == true}
				kv, _ := msg.Body.Get("keys")
				for _, k := range kv.(bson.A) {
					r.keys = append(r.keys, k.(string))
				}
				mu.Lock()
				served = append(served, r)
				mu.Unlock()
				if refuse != nil && refuse(r) {
					return nil, errors.New("test: read refused")
				}
			}
			return coord.HandleMessage(ctx, msg)
		})
	}
	return func() []servedRead {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(served)
	}
}

// pinHedge fills co's read-latency history with 1 s reads, so the hedge
// waits CallTimeout/2 and reserves launch only from the finisher.
func pinHedge(co *Coordinator) {
	for i := 0; i < 100; i++ {
		co.GetLatency().ObserveDuration(time.Second)
	}
}

// TestFinisherReservesReadDigests: the primary's read carries the value,
// and the reserves the finisher launches after the caller has its answer
// ask for digests only.
func TestFinisherReservesReadDigests(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	key := "digest-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	owners, _ := tc.ring.Successors(key, 3)
	log := tc.logReplicaReads(nil)
	co := tc.nonOwnerCoord(t, key)
	pinHedge(co)
	if val, err := co.Get(ctx, key); err != nil || string(val) != "v" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	waitFor(t, "the finisher's reserve reads", func() bool { return len(log()) == 3 })
	want := map[string]bool{owners[0]: false, owners[1]: true, owners[2]: true}
	for _, r := range log() {
		if d, ok := want[r.node]; !ok || r.digest != d {
			t.Fatalf("%s served a read with digest=%v; want primary %s full, reserves %v digest",
				r.node, r.digest, owners[0], owners[1:])
		}
	}
}

// TestStalePrimaryRepairedByFetchOnNewer: when a reserve's digest is newer
// than the primary's full answer, the finisher fetches that record whole
// from the reserve and writes its bytes back to the primary. If the fetch
// fails, the primary is left for anti-entropy and the drop is counted.
func TestStalePrimaryRepairedByFetchOnNewer(t *testing.T) {
	for _, refuseFetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("refuseFetch=%v", refuseFetch), func(t *testing.T) {
			tc := newTestCluster(t, 5, defaultCfg())
			ctx := context.Background()
			key := "fetch-key"
			if err := tc.coords[0].Put(ctx, key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			tc.waitReplicas(t, key, 3)
			owners, _ := tc.ring.Successors(key, 3)
			primary := tc.coordFor(t, owners[0])
			primary.store.C(RecordCollection).Delete(key) //nolint:errcheck
			if err := primary.ApplyLocal(Record{Key: key, Val: []byte("ancient"), Ver: 1, Origin: "old"}); err != nil {
				t.Fatal(err)
			}
			log := tc.logReplicaReads(func(r servedRead) bool { return refuseFetch && r.node != owners[0] && !r.digest })
			co := tc.nonOwnerCoord(t, key)
			pinHedge(co)
			if val, err := co.Get(ctx, key); err != nil || string(val) != "ancient" {
				t.Fatalf("Get = %q, %v; want the R = 1 primary's stale answer", val, err)
			}
			fetched := func() int {
				n := 0
				for _, r := range log() {
					if r.node != owners[0] && !r.digest {
						n++
					}
				}
				return n
			}
			if refuseFetch {
				waitFor(t, "the failed fetch counted", func() bool { return co.Stats().ReadRepairDropped == 1 })
				if rec, _, _ := primary.GetLocal(key); string(rec.Val) != "ancient" || co.Stats().ReadRepairs != 0 {
					t.Fatalf("primary holds %q after a failed fetch (%d repairs); want it left to anti-entropy", rec.Val, co.Stats().ReadRepairs)
				}
			} else {
				waitFor(t, "the primary repaired with the newest bytes", func() bool {
					rec, _, _ := primary.GetLocal(key)
					return string(rec.Val) == "v1" && co.Stats().ReadRepairs == 1
				})
			}
			if got := fetched(); got != 1 {
				t.Fatalf("%d full reads of a reserve, want the one fetch", got)
			}
		})
	}
}

// keysSharingReserve writes n keys, each held by all three replicas, that
// share one reserve, and returns them, that reserve and a coordinator that
// replicates none of them.
func (tc *testCluster) keysSharingReserve(t *testing.T, prefix string, n int) (keys []string, reserve string, co *Coordinator) {
	t.Helper()
	reserve, co = tc.addrs[0], tc.coords[1]
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		owners, _ := tc.ring.Successors(k, 3)
		if slices.Contains(owners[1:], reserve) && !slices.Contains(owners, co.self) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := tc.coords[0].Put(context.Background(), k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
		tc.waitReplicas(t, k, 3)
	}
	return keys, reserve, co
}

// getAll reads every key through co at once, one Get per key, and checks
// each answer.
func getAll(t *testing.T, co *Coordinator, keys []string) {
	t.Helper()
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if val, err := co.Get(context.Background(), k); err != nil || string(val) != "v-"+k {
				t.Errorf("Get(%q) = %q, %v", k, val, err)
			}
		}()
	}
	wg.Wait()
}

// digestReads returns the digest reads node served in log.
func digestReads(log []servedRead, node string) (reads []servedRead) {
	for _, r := range log {
		if r.node == node && r.digest {
			reads = append(reads, r)
		}
	}
	return reads
}

// TestRepairProbesShareOneDigestRead: the finishers of several one-key reads
// probe a reserve they share in fewer digest reads than there are reads, and
// between them those reads ask exactly the reads' keys.
func TestRepairProbesShareOneDigestRead(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	keys, reserve, co := tc.keysSharingReserve(t, "probe-batch", 8)
	log := tc.logReplicaReads(nil)
	pinHedge(co)
	getAll(t, co, keys)
	asked := func() (n int, keys []string) {
		for _, r := range digestReads(log(), reserve) {
			n++
			keys = append(keys, r.keys...)
		}
		return n, keys
	}
	waitFor(t, "every read's probe of the shared reserve", func() bool {
		_, ks := asked()
		return len(ks) >= len(keys)
	})
	waitFor(t, "the probes answered", func() bool { return co.RepairBacklog() == 0 })
	n, got := asked()
	want := slices.Clone(keys)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the reserve was asked %v; want the reads' keys %v", got, want)
	}
	if n >= len(keys) {
		t.Fatalf("%d reads probed the shared reserve in %d digest reads; want fewer", len(keys), n)
	}
}

// TestBatchedProbeRepairsOnlyTheStaleKey: two reads whose probes of a
// reserve ride one digest read, the reserve stale for the first key and
// current for the second: exactly the first key is repaired. A pair that
// happens to land in two batches is retried on fresh keys.
func TestBatchedProbeRepairsOnlyTheStaleKey(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		tc := newTestCluster(t, 5, defaultCfg())
		keys, reserve, co := tc.keysSharingReserve(t, fmt.Sprintf("probe-stale-%d", attempt), 2)
		stale := tc.coordFor(t, reserve)
		stale.store.C(RecordCollection).Delete(keys[0]) //nolint:errcheck
		if err := stale.ApplyLocal(Record{Key: keys[0], Val: []byte("ancient"), Ver: 1, Origin: "old"}); err != nil {
			t.Fatal(err)
		}
		log := tc.logReplicaReads(nil)
		pinHedge(co)
		getAll(t, co, keys)
		waitFor(t, "the stale reserve repaired", func() bool {
			rec, _, _ := stale.GetLocal(keys[0])
			return string(rec.Val) == "v-"+keys[0]
		})
		waitFor(t, "the repair settled", func() bool { return co.RepairBacklog() == 0 })
		if st := co.Stats(); st.ReadRepairs != 1 || st.ReplicaSupplements != 0 {
			t.Fatalf("%d read repairs and %d supplements; want exactly the stale key repaired", st.ReadRepairs, st.ReplicaSupplements)
		}
		if rec, _, _ := stale.GetLocal(keys[1]); string(rec.Val) != "v-"+keys[1] {
			t.Fatalf("the reserve holds %q for the current key", rec.Val)
		}
		if len(digestReads(log(), reserve)) == 1 {
			return
		}
	}
	t.Fatal("two concurrent reads never shared a probe batch in 5 attempts")
}

// TestFailedProbeBatchFailsEachRead: a reserve refuses digest reads. Every
// read in its batch still finishes (each read's other, stale reserve is
// repaired), the backlog drains, and the failed probe writes nothing: the
// refusing reserve is not taken for a replica missing the record.
func TestFailedProbeBatchFailsEachRead(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	keys, reserve, co := tc.keysSharingReserve(t, "probe-fail", 4)
	for _, k := range keys {
		owners, _ := tc.ring.Successors(k, 3)
		other := owners[1]
		if other == reserve {
			other = owners[2]
		}
		victim := tc.coordFor(t, other)
		victim.store.C(RecordCollection).Delete(k) //nolint:errcheck
		if err := victim.ApplyLocal(Record{Key: k, Val: []byte("ancient"), Ver: 1, Origin: "old"}); err != nil {
			t.Fatal(err)
		}
	}
	log := tc.logReplicaReads(func(r servedRead) bool { return r.node == reserve && r.digest })
	pinHedge(co)
	getAll(t, co, keys)
	waitFor(t, "every read's finisher repaired its stale reserve", func() bool {
		return co.Stats().ReadRepairs == int64(len(keys)) && co.RepairBacklog() == 0
	})
	if st := co.Stats(); st.ReplicaSupplements != 0 {
		t.Fatalf("%d supplements after a refused probe; want none", st.ReplicaSupplements)
	}
	if len(digestReads(log(), reserve)) == 0 {
		t.Fatal("the refusing reserve was never probed")
	}
}

// TestCloseWithQueuedProbes: Close returns while a read's probes wait for
// their batch, the batch still goes out and lands, and the coordinator keeps
// answering reads.
func TestCloseWithQueuedProbes(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	keys, _, co := tc.keysSharingReserve(t, "probe-close", 2)
	pinHedge(co)
	getAll(t, co, keys[:1])
	co.Close()
	waitFor(t, "the queued probes answered", func() bool { return co.RepairBacklog() == 0 })
	getAll(t, co, keys[1:])
	waitFor(t, "the later read's probes answered", func() bool { return co.RepairBacklog() == 0 })
}
