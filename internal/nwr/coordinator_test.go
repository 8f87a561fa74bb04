package nwr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mystore/internal/docstore"
	"mystore/internal/ring"
	"mystore/internal/transport"
)

// testCluster wires n coordinators over a MemNetwork and one shared ring,
// the smallest assembly that exercises the full replica protocol.
type testCluster struct {
	net    *transport.MemNetwork
	ring   *ring.Ring
	eps    []*transport.MemTransport
	coords []*Coordinator
	stores []*docstore.Store
	addrs  []string
}

// newTestCluster wires n coordinators over a MemNetwork; a cfg without a
// CallTimeout gets one second.
func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = time.Second
	}
	tc := &testCluster{net: transport.NewMemNetwork(), ring: ring.New()}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node-%d", i)
		tc.addrs = append(tc.addrs, addr)
		if err := tc.ring.AddNode(ring.Node{ID: addr, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ep, err := tc.net.Endpoint(tc.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		store, err := docstore.Open(docstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		coord, err := NewCoordinator(cfg, tc.addrs[i], tc.ring, ep, store)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(coord.HandleMessage)
		tc.eps = append(tc.eps, ep)
		tc.coords = append(tc.coords, coord)
		tc.stores = append(tc.stores, store)
	}
	return tc
}

// replicaCount reports on how many nodes key's record currently exists
// (tombstoned or not).
func (tc *testCluster) replicaCount(key string) int {
	n := 0
	for _, c := range tc.coords {
		if _, found, _ := c.GetLocal(key); found {
			n++
		}
	}
	return n
}

// waitReplicas polls until key exists on want nodes; Put returns at the W
// quorum and finishes the remaining replications in the background.
func (tc *testCluster) waitReplicas(t *testing.T, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if tc.replicaCount(key) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("key %q has %d replicas, want %d", key, tc.replicaCount(key), want)
}

// waitFor polls cond until it holds or a 2s deadline passes. The read path
// answers at the quorum and finishes read repair / supplementation on the
// async pool, so tests wait for repair effects instead of asserting them the
// instant Get returns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached: %s", what)
}

func defaultCfg() Config {
	return Config{N: 3, W: 2, R: 1, CallTimeout: time.Second}
}

// overlapCfg is defaultCfg with R raised so that W + R > N. A test that reads
// a key straight after writing it needs this: at (3,2,1) a read settles on
// the first answer, which may come from the one replica the acked write has
// not reached yet (DESIGN.md §9).
func overlapCfg() Config {
	cfg := defaultCfg()
	cfg.R = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 0, W: 1, R: 1},
		{N: 3, W: 0, R: 1},
		{N: 3, W: 4, R: 1},
		{N: 3, W: 2, R: 0},
		{N: 3, W: 2, R: 4},
		{N: 3, W: 2, R: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Config%+v validated", c)
		}
	}
	if err := defaultCfg().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 5, overlapCfg())
	ctx := context.Background()
	coord := tc.coords[0]
	if err := coord.Put(ctx, "Resistor5", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Any coordinator can serve the read.
	for i, c := range tc.coords {
		val, err := c.Get(ctx, "Resistor5")
		if err != nil {
			t.Fatalf("Get via node-%d: %v", i, err)
		}
		if string(val) != "payload" {
			t.Fatalf("Get via node-%d = %q", i, val)
		}
	}
	tc.waitReplicas(t, "Resistor5", 3)
}

func TestGetMissingKey(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	if _, err := tc.coords[0].Get(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteIsTombstone(t *testing.T) {
	tc := newTestCluster(t, 5, overlapCfg())
	ctx := context.Background()
	tc.coords[0].Put(ctx, "k", []byte("v")) //nolint:errcheck
	if err := tc.coords[1].Delete(ctx, "k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tc.coords[2].Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v", err)
	}
	// The rows still exist physically, flagged isDel (paper §3.3). The last
	// replica may receive its tombstone from the background replication or
	// async read repair, so poll.
	if got := tc.replicaCount("k"); got == 0 {
		t.Fatal("tombstones were physically removed")
	}
	waitFor(t, "all live replicas tombstoned", func() bool {
		for _, c := range tc.coords {
			rec, found, _ := c.GetLocal("k")
			if found && !rec.Deleted {
				return false
			}
		}
		return true
	})
}

func TestLastWriteWins(t *testing.T) {
	tc := newTestCluster(t, 5, overlapCfg())
	ctx := context.Background()
	tc.coords[0].Put(ctx, "k", []byte("v1")) //nolint:errcheck
	time.Sleep(time.Millisecond)             // ensure a later timestamp
	tc.coords[3].Put(ctx, "k", []byte("v2")) //nolint:errcheck
	val, err := tc.coords[1].Get(ctx, "k")
	if err != nil || string(val) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", val, err)
	}
	// Recreate after delete.
	tc.coords[0].Delete(ctx, "k") //nolint:errcheck
	time.Sleep(time.Millisecond)
	tc.coords[2].Put(ctx, "k", []byte("v3")) //nolint:errcheck
	val, err = tc.coords[4].Get(ctx, "k")
	if err != nil || string(val) != "v3" {
		t.Fatalf("Get after recreate = %q, %v", val, err)
	}
}

func TestStaleWriteIgnored(t *testing.T) {
	tc := newTestCluster(t, 3, Config{N: 3, W: 3, R: 1})
	c := tc.coords[0]
	newer := Record{Key: "k", Val: []byte("new"), Ver: 100, Origin: "b"}
	older := Record{Key: "k", Val: []byte("old"), Ver: 50, Origin: "a"}
	if err := c.ApplyLocal(newer); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyLocal(older); err != nil {
		t.Fatal(err)
	}
	rec, found, _ := c.GetLocal("k")
	if !found || string(rec.Val) != "new" {
		t.Fatalf("stale write overwrote: %q", rec.Val)
	}
	// Equal Ver: higher origin wins.
	tie := Record{Key: "k", Val: []byte("tie"), Ver: 100, Origin: "z"}
	c.ApplyLocal(tie) //nolint:errcheck
	rec, _, _ = c.GetLocal("k")
	if string(rec.Val) != "tie" {
		t.Fatalf("origin tiebreak failed: %q", rec.Val)
	}
}

func TestWriteQuorumFailure(t *testing.T) {
	tc := newTestCluster(t, 5, Config{N: 3, W: 3, R: 1})
	ctx := context.Background()
	// Find the replica set for a key, kill two replicas AND enough of the
	// cluster that no hint target remains.
	key := "doomed-key"
	for _, ep := range tc.eps[1:] {
		ep.Close()
	}
	owners, _ := tc.ring.Successors(key, 3)
	selfIsOwner := false
	for _, o := range owners {
		if o == tc.addrs[0] {
			selfIsOwner = true
		}
	}
	err := tc.coords[0].Put(ctx, key, []byte("v"))
	if !errors.Is(err, ErrQuorumWrite) {
		t.Fatalf("err = %v, want ErrQuorumWrite (self owner: %v)", err, selfIsOwner)
	}
	st := tc.coords[0].Stats()
	if st.PutFailures != 1 {
		t.Fatalf("PutFailures = %d", st.PutFailures)
	}
}

func TestReadQuorumFailure(t *testing.T) {
	tc := newTestCluster(t, 5, Config{N: 3, W: 1, R: 3})
	ctx := context.Background()
	if err := tc.coords[0].Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Take down everything except the coordinator: at most one replica
	// (possibly local) can answer, below R=3.
	for _, ep := range tc.eps[1:] {
		ep.Close()
	}
	if _, err := tc.coords[0].Get(ctx, "k"); !errors.Is(err, ErrQuorumRead) {
		t.Fatalf("err = %v, want ErrQuorumRead", err)
	}

	// A read that does reach a replica, but fewer than R, fails too: with
	// N = 3 on three nodes the coordinator holds a replica, so exactly its
	// local answer arrives, 1 < R = 2.
	tc2 := newTestCluster(t, 3, Config{N: 3, W: 3, R: 2, CallTimeout: time.Second})
	if err := tc2.coords[0].Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range tc2.eps[1:] {
		ep.Close()
	}
	if _, err := tc2.coords[0].Get(ctx, "k"); !errors.Is(err, ErrQuorumRead) {
		t.Fatalf("one of R=2 replicas: err = %v, want ErrQuorumRead", err)
	}
}

func TestHintedHandoffAndWriteback(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	key := "hinted-key"
	owners, _ := tc.ring.Successors(key, 3)
	// Pick a coordinator that is NOT a replica for the key, so closing one
	// replica cannot silently become a local write.
	coordIdx := -1
	for i, a := range tc.addrs {
		isOwner := false
		for _, o := range owners {
			if o == a {
				isOwner = true
			}
		}
		if !isOwner {
			coordIdx = i
			break
		}
	}
	if coordIdx < 0 {
		t.Fatal("no non-owner coordinator available")
	}
	// Down one replica.
	var downIdx int
	for i, a := range tc.addrs {
		if a == owners[2] {
			downIdx = i
		}
	}
	tc.eps[downIdx].Close()

	if err := tc.coords[coordIdx].Put(ctx, key, []byte("v")); err != nil {
		t.Fatalf("Put with one replica down: %v", err)
	}
	// A hint must be parked somewhere; the hint path may complete after the
	// W quorum returned, so poll briefly.
	totalHints := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		totalHints = 0
		for _, c := range tc.coords {
			totalHints += c.HintCount()
		}
		if totalHints == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if totalHints != 1 {
		t.Fatalf("hints parked = %d, want 1", totalHints)
	}
	// The downed replica has no data yet.
	if _, found, _ := tc.coords[downIdx].GetLocal(key); found {
		t.Fatal("closed replica somehow has the record")
	}
	// Node recovers; hints are delivered on the next pass.
	tc.eps[downIdx].Reopen()
	for _, c := range tc.coords {
		c.DeliverHints(ctx)
	}
	if _, found, _ := tc.coords[downIdx].GetLocal(key); !found {
		t.Fatal("writeback did not restore the replica")
	}
	totalHints = 0
	delivered := int64(0)
	for _, c := range tc.coords {
		totalHints += c.HintCount()
		delivered += c.Stats().HintsDelivered
	}
	if totalHints != 0 || delivered != 1 {
		t.Fatalf("after writeback: hints=%d delivered=%d", totalHints, delivered)
	}
}

func TestSloppyQuorumKeepsWritesAvailable(t *testing.T) {
	// W=2 with one of three replicas down must still succeed via the hint.
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	succeeded := 0
	tc.eps[2].Close()
	for i := 0; i < 50; i++ {
		if err := tc.coords[0].Put(ctx, fmt.Sprintf("key-%d", i), []byte("v")); err == nil {
			succeeded++
		}
	}
	if succeeded != 50 {
		t.Fatalf("only %d/50 puts succeeded with one node down", succeeded)
	}
}

func TestReadRepair(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	key := "repair-key"
	if err := tc.coords[0].Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tc.waitReplicas(t, key, 3)
	// Manually stale one replica.
	owners, _ := tc.ring.Successors(key, 3)
	var victim *Coordinator
	for i, a := range tc.addrs {
		if a == owners[1] {
			victim = tc.coords[i]
		}
	}
	stale := Record{Key: key, Val: []byte("ancient"), Ver: 1, Origin: "old"}
	// Force-overwrite by deleting the row then applying the stale record.
	victim.store.C(RecordCollection).Delete(key) //nolint:errcheck
	if err := victim.ApplyLocal(stale); err != nil {
		t.Fatal(err)
	}
	// A read through any coordinator repairs it — asynchronously, off the
	// request path.
	val, err := tc.coords[0].Get(ctx, key)
	if err != nil || string(val) != "v1" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	waitFor(t, "stale replica repaired and counted", func() bool {
		rec, _, _ := victim.GetLocal(key)
		return string(rec.Val) == "v1" && tc.coords[0].Stats().ReadRepairs > 0
	})
}

func TestReplicaSupplementationOnRead(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	key := "supplement-key"
	tc.coords[0].Put(ctx, key, []byte("v")) //nolint:errcheck
	tc.waitReplicas(t, key, 3)
	// Physically remove the record from one replica (simulating data loss).
	owners, _ := tc.ring.Successors(key, 3)
	var victim *Coordinator
	for i, a := range tc.addrs {
		if a == owners[2] {
			victim = tc.coords[i]
		}
	}
	victim.store.C(RecordCollection).Delete(key) //nolint:errcheck
	if got := tc.replicaCount(key); got != 2 {
		t.Fatalf("setup: replicas = %d, want 2", got)
	}
	if _, err := tc.coords[1].Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "missing replica supplemented after read", func() bool {
		return tc.replicaCount(key) == 3
	})
}

func TestLocalOpFaultHook(t *testing.T) {
	tc := newTestCluster(t, 3, Config{N: 3, W: 3, R: 3})
	ctx := context.Background()
	boom := errors.New("disk io error")
	tc.coords[1].OnLocalOp = func(op string, bytes int) error { return boom }
	// W=3 cannot be met when one replica's disk fails every op and the
	// hint path also targets... actually hints can rescue; with 3 nodes
	// and all in the replica set, no hint target exists.
	err := tc.coords[0].Put(ctx, "k", []byte("v"))
	if !errors.Is(err, ErrQuorumWrite) {
		t.Fatalf("err = %v, want ErrQuorumWrite", err)
	}
}

// TestLiveGateSkipsDeadPeers: a peer gossip reports long-failed is down in
// the view and receives nothing, however long it has been.
func TestLiveGateSkipsDeadPeers(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	for _, c := range tc.coords {
		c.Peers().Down(tc.addrs[3])
	}
	for i := 0; i < 20; i++ {
		if err := tc.coords[0].Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// node-3 must have received nothing: the gate filtered it out.
	if got := tc.stores[3].C(RecordCollection).Len(); got != 0 {
		t.Fatalf("dead-gated node received %d records", got)
	}
}

func TestRecordDocRoundTrip(t *testing.T) {
	rec := Record{Key: "k", Val: []byte{1, 2, 3}, IsData: true, Deleted: false, Ver: 42, Origin: "node-1"}
	got, err := RecordFromDoc(rec.ToDoc())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != rec.Key || string(got.Val) != string(rec.Val) || got.IsData != rec.IsData ||
		got.Deleted != rec.Deleted || got.Ver != rec.Ver || got.Origin != rec.Origin {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}
	if _, err := RecordFromDoc(nil); err == nil {
		t.Error("nil doc accepted")
	}
	doc := rec.WithId(time.Time{})
	if id, _ := doc.Get("_id"); id != rec.Key {
		t.Errorf("WithId _id = %v, want the self-key %q", id, rec.Key)
	}
}

func TestNewerOrdering(t *testing.T) {
	a := Record{Ver: 1, Origin: "x"}
	b := Record{Ver: 2, Origin: "a"}
	if !b.Newer(a) || a.Newer(b) {
		t.Error("version ordering wrong")
	}
	c := Record{Ver: 1, Origin: "y"}
	if !c.Newer(a) || a.Newer(c) {
		t.Error("origin tiebreak wrong")
	}
}

func TestUnknownMessageType(t *testing.T) {
	tc := newTestCluster(t, 3, Config{N: 1, W: 1, R: 1})
	if _, err := tc.coords[0].HandleMessage(context.Background(), transport.Message{Type: "bogus"}); err == nil {
		t.Fatal("unknown message accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		tc.coords[0].Put(ctx, fmt.Sprintf("k%d", i), []byte("v")) //nolint:errcheck
		tc.coords[0].Get(ctx, fmt.Sprintf("k%d", i))              //nolint:errcheck
	}
	st := tc.coords[0].Stats()
	if st.Puts != 10 || st.Gets != 10 {
		t.Fatalf("Stats = %+v", st)
	}
}
