package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/gossip"
	"mystore/internal/nwr"
	"mystore/internal/transport"
)

// harness runs an in-process cluster over a MemNetwork with a virtual
// clock, mirroring the paper's 5-node testbed (1 seed + 4 normal nodes).
type harness struct {
	t      *testing.T
	net    *transport.MemNetwork
	quorum nwr.Config
	eps    []*transport.MemTransport
	nodes  []*Node
	// weights, when set, is each node's capacity weight (default 1).
	weights []int
	mu      sync.Mutex
	now     time.Time
}

func addr(i int) string { return fmt.Sprintf("10.0.0.%d:19870", i+1) }

// newHarness builds an unconverged cluster at the paper's (N,W,R) = (3,2,1).
// At that setting a read may miss the caller's own acked write (DESIGN.md
// §9); tests that read a key straight after writing it use newQuorumHarness
// with W + R > N instead.
func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	return newHarnessNWR(t, n, 3, 2, 1)
}

func newHarnessNWR(t *testing.T, nodes, n, w, r int) *harness {
	t.Helper()
	h := &harness{t: t, net: transport.NewMemNetwork(), now: time.Unix(5000, 0),
		quorum: nwr.Config{N: n, W: w, R: r, CallTimeout: time.Second}}
	seeds := []string{addr(0)}
	for i := 0; i < nodes; i++ {
		h.addNode(i, seeds)
	}
	return h
}

func (h *harness) clock() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now
}

func (h *harness) addNode(i int, seeds []string) *Node {
	h.t.Helper()
	ep, err := h.net.Endpoint(addr(i))
	if err != nil {
		h.t.Fatal(err)
	}
	weight := 1
	if i < len(h.weights) {
		weight = h.weights[i]
	}
	node, err := NewNode(ep, Config{
		Seeds:          seeds,
		Weight:         weight,
		NWR:            h.quorum,
		GossipInterval: time.Second,
		Now:            h.clock,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { node.Close() })
	h.eps = append(h.eps, ep)
	h.nodes = append(h.nodes, node)
	return node
}

// advance moves the harness's virtual clock forward.
func (h *harness) advance(d time.Duration) {
	h.mu.Lock()
	h.now = h.now.Add(d)
	h.mu.Unlock()
}

// converge runs gossip rounds until every node knows every other (or the
// round budget runs out).
func (h *harness) converge(rounds int) {
	for r := 0; r < rounds; r++ {
		for i, n := range h.nodes {
			if h.eps[i].Closed() {
				continue
			}
			n.Tick(context.Background())
		}
		h.mu.Lock()
		h.now = h.now.Add(time.Second)
		h.mu.Unlock()
	}
}

func (h *harness) client(t *testing.T) *Client {
	t.Helper()
	ep, err := h.net.Endpoint(fmt.Sprintf("client-%d:0", len(h.net.Addresses())))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	for i := range h.nodes {
		nodes = append(nodes, addr(i))
	}
	c, err := Connect(context.Background(), ep, nodes, ClientOptions{AutoRetry: true})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return c
}

func TestMembershipConvergence(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	for i, n := range h.nodes {
		if got := n.Ring().Len(); got != 5 {
			t.Fatalf("node %d ring has %d members, want 5", i, got)
		}
	}
}

// TestWeightedCluster: a node's capacity weight (mystore-server -weight)
// scales its share of the ring, so a heavier node holds more records.
func TestWeightedCluster(t *testing.T) {
	h := &harness{t: t, net: transport.NewMemNetwork(), now: time.Unix(5000, 0),
		quorum: nwr.Config{N: 1, W: 1, R: 1, CallTimeout: time.Second}, weights: []int{1, 2, 3}}
	for i := range h.weights {
		h.addNode(i, []string{addr(0)})
	}
	h.converge(12)
	client := h.client(t)
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		client.Put(ctx, fmt.Sprintf("w-key-%04d", i), []byte("v")) //nolint:errcheck
	}
	// With one replica per key, the heaviest node should hold more records
	// than the lightest (probabilistic, wide margin).
	l0 := h.nodes[0].Store().C(nwr.RecordCollection).Len()
	l2 := h.nodes[2].Store().C(nwr.RecordCollection).Len()
	if l2 <= l0/2 {
		t.Fatalf("weight-3 node holds %d, weight-1 node %d", l2, l0)
	}
}

func TestClientConnectTestsConnection(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	// Healthy connect.
	c := h.client(t)
	if len(c.Nodes()) != 3 {
		t.Fatalf("client nodes = %v", c.Nodes())
	}
	// All nodes down: Connect must fail the test, as the paper requires a
	// real connection before returning true.
	for _, ep := range h.eps {
		ep.Close()
	}
	ep, _ := h.net.Endpoint("client-x:0")
	if _, err := Connect(context.Background(), ep, []string{addr(0)}, ClientOptions{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Connect err = %v, want ErrNoNodes", err)
	}
	if _, err := Connect(context.Background(), ep, nil, ClientOptions{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Connect with no nodes err = %v", err)
	}
}

func TestClientPutGetDelete(t *testing.T) {
	h := newQuorumHarness(t, 5, 3, 2, 2) // reads its own writes: W + R > N
	c := h.client(t)
	ctx := context.Background()
	if err := c.Put(ctx, "Resistor5", []byte("component-xml")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	val, err := c.Get(ctx, "Resistor5")
	if err != nil || string(val) != "component-xml" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if err := c.Delete(ctx, "Resistor5"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get(ctx, "Resistor5"); !errors.Is(err, ErrKeyNotFound) && !transport.IsRemote(err) {
		t.Fatalf("Get after delete = %v", err)
	}
}

func TestClientDocQueries(t *testing.T) {
	h := newQuorumHarness(t, 5, 3, 2, 2) // GetDoc reads its own PutDoc: W + R > N
	c := h.client(t)
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		doc := bson.D{
			{Key: "type", Value: []string{"scene", "video", "report"}[i%3]},
			{Key: "course", Value: fmt.Sprintf("EE%d", 100+i%2)},
			{Key: "seq", Value: int64(i)},
		}
		if err := c.PutDoc(ctx, fmt.Sprintf("item-%02d", i), doc); err != nil {
			t.Fatalf("PutDoc: %v", err)
		}
	}
	// Complex query: embedded-document field + operator, sorted, limited.
	results, err := c.Query(ctx, docstore.Filter{
		{Key: "doc.type", Value: "scene"},
		{Key: "doc.seq", Value: bson.D{{Key: "$gte", Value: int64(9)}}},
	}, docstore.FindOptions{
		Sort:  []docstore.SortField{{Field: "self-key", Desc: false}},
		Limit: 4,
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("Query returned %d results, want 4", len(results))
	}
	prev := ""
	for _, r := range results {
		if r.Key <= prev {
			t.Fatalf("results unsorted: %q after %q", r.Key, prev)
		}
		prev = r.Key
		if r.Doc.StringOr("type", "") != "scene" {
			t.Fatalf("non-scene result %s", r.Doc)
		}
	}
	// Regex on self-key, the MongoDB-style query Dynamo cannot serve.
	results, err = c.Query(ctx, docstore.Filter{
		{Key: "self-key", Value: bson.D{{Key: "$regex", Value: "^item-0[0-3]$"}}},
	}, docstore.FindOptions{})
	if err != nil || len(results) != 4 {
		t.Fatalf("regex query = %d results, %v", len(results), err)
	}
	// GetDoc round trip.
	doc, err := c.GetDoc(ctx, "item-05")
	if err != nil || doc.StringOr("type", "") == "" {
		t.Fatalf("GetDoc = %s, %v", doc, err)
	}
}

func TestDistributedAggregate(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		doc := bson.D{
			{Key: "kind", Value: []string{"scene", "video"}[i%2]},
			{Key: "bytes", Value: int64(100 * (i + 1))},
		}
		if err := c.PutDoc(ctx, fmt.Sprintf("agg-%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	// One record deleted: aggregation must not see it.
	c.Delete(ctx, "agg-00") //nolint:errcheck
	rows, err := c.Aggregate(ctx, docstore.Filter{}, docstore.GroupSpec{
		By: "doc.kind",
		Accumulators: []docstore.AccumulatorSpec{
			{Name: "n", Op: docstore.AccCount},
			{Name: "total", Op: docstore.AccSum, Field: "doc.bytes"},
			{Name: "maxB", Op: docstore.AccMax, Field: "doc.bytes"},
		},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	// Despite N=3 replication, counts must reflect DISTINCT keys, not
	// replicas: 11 scenes (one deleted) + 12 videos.
	byKind := map[string]bson.D{}
	for _, r := range rows {
		id, _ := r.Get("_id")
		byKind[id.(string)] = r
	}
	if n, _ := byKind["scene"].Get("n"); n != int64(11) {
		t.Fatalf("scene count = %v, want 11 (dedup across replicas, minus delete)", n)
	}
	if n, _ := byKind["video"].Get("n"); n != int64(12) {
		t.Fatalf("video count = %v, want 12", n)
	}
	// scene bytes: indices 2,4,...,22 → 100*(3+5+...+23); video: 100*(2+4+...+24).
	wantScene := int64(0)
	for i := 2; i < 24; i += 2 {
		wantScene += int64(100 * (i + 1))
	}
	if total, _ := byKind["scene"].Get("total"); total != wantScene {
		t.Fatalf("scene total = %v, want %d", total, wantScene)
	}
	if maxB, _ := byKind["video"].Get("maxB"); maxB != int64(2400) {
		t.Fatalf("video maxB = %v", maxB)
	}
}

func TestQueryExcludesDeleted(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	c := h.client(t)
	ctx := context.Background()
	c.Put(ctx, "alive", []byte("x"))  //nolint:errcheck
	c.Put(ctx, "doomed", []byte("y")) //nolint:errcheck
	c.Delete(ctx, "doomed")           //nolint:errcheck
	results, err := c.Query(ctx, docstore.Filter{}, docstore.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Key != "alive" {
		t.Fatalf("Query = %+v, want only 'alive'", results)
	}
}

// TestQuerySkipsSuspectPeers: the query fan-out asks the peer view like
// every other node-to-node call, so a peer it holds suspect receives no
// node.query.local, and the query answers from the other shards.
func TestQuerySkipsSuspectPeers(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	ctx := context.Background()
	if err := h.client(t).Put(ctx, "q-key", []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.converge(2)
	var toSuspect, toOthers atomic.Int64
	suspect := addr(1)
	h.net.SetFault(func(_, to, msgType string) error {
		if msgType == MsgQueryLocal {
			if to == suspect {
				toSuspect.Add(1)
			} else {
				toOthers.Add(1)
			}
		}
		return nil
	})
	h.nodes[0].Coordinator().Peers().Suspect(suspect)
	results, err := h.nodes[0].Query(ctx, docstore.Filter{}, docstore.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if toSuspect.Load() != 0 || toOthers.Load() != 1 {
		t.Fatalf("node.query.local sent %d times to the suspect peer and %d to the other, want 0 and 1",
			toSuspect.Load(), toOthers.Load())
	}
	if len(results) != 1 || results[0].Key != "q-key" {
		t.Fatalf("Query = %+v, want q-key from the other shards", results)
	}
}

func TestReplicaDistributionAcrossNodes(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	const records = 200
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Put returns at the W quorum; the Nth replication may land after the
	// call, so poll for the full census.
	var total int
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		total = 0
		for _, n := range h.nodes {
			total += n.Store().C(nwr.RecordCollection).Len()
		}
		if total == records*3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total != records*3 {
		t.Fatalf("total replicas = %d, want %d (N=3)", total, records*3)
	}
	for i, n := range h.nodes {
		if n.Store().C(nwr.RecordCollection).Len() == 0 {
			t.Errorf("node %d holds no replicas", i)
		}
	}
}

func TestNodeJoinMigratesData(t *testing.T) {
	h := newHarness(t, 4)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	const records = 150
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A fifth node joins; gossip spreads it; rebalance pushes its ranges.
	h.addNode(4, []string{addr(0)})
	h.converge(20)
	newNode := h.nodes[4]
	got := newNode.Store().C(nwr.RecordCollection).Len()
	if got == 0 {
		t.Fatal("joined node received no data")
	}
	// Every key must still be fully replicated N=3 times cluster-wide and
	// readable.
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("key-%04d", i)
		copies := 0
		for _, n := range h.nodes {
			if _, found, _ := n.Coordinator().GetLocal(key); found {
				copies++
			}
		}
		if copies < 3 {
			t.Fatalf("key %s has %d copies after join", key, copies)
		}
		if _, err := c.Get(ctx, key); err != nil {
			t.Fatalf("Get(%s) after join: %v", key, err)
		}
	}
}

// TestRebalanceKeepsWriteAfterScan: rebalance scans for records this node no
// longer owns, writes them to their owners, and drops the local copies the
// owners confirm. A newer version written here between the scan and the drop
// is not the one they confirmed: it must stay, and move on the re-armed pass.
func TestRebalanceKeepsWriteAfterScan(t *testing.T) {
	h := newHarness(t, 4)
	h.converge(12)
	ctx := context.Background()
	stray := h.nodes[3]
	var key string
	var owners []string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("moved-%03d", i)
		os, err := stray.ring.Successors(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(os, stray.Addr()) {
			key, owners = k, os
		}
	}
	v1 := nwr.Record{Key: key, Val: []byte("v1"), IsData: true, Ver: 10, Origin: "a"}
	v2 := nwr.Record{Key: key, Val: []byte("v2"), IsData: true, Ver: 20, Origin: "a"}
	if err := stray.Coordinator().ApplyLocal(v1); err != nil {
		t.Fatal(err)
	}
	// The first digest read leaving the stray node proves its scan is over.
	var once sync.Once
	h.net.SetFault(func(from, to, msgType string) error {
		if from == stray.Addr() && msgType == nwr.MsgGetReplica {
			once.Do(func() {
				if err := stray.Coordinator().ApplyLocal(v2); err != nil {
					t.Error(err)
				}
			})
		}
		return nil
	})
	if _, dropped := stray.Rebalance(ctx); dropped != 0 {
		t.Fatalf("rebalance dropped %d records; the only one here was rewritten after the scan", dropped)
	}
	if rec, found, _ := stray.Coordinator().GetLocal(key); !found || rec.Ver != v2.Ver {
		t.Fatalf("stray node holds %+v (found %v), want the version written after the scan", rec, found)
	}
	stray.mu.Lock()
	rearmed := stray.rebalanceWanted
	stray.mu.Unlock()
	if !rearmed {
		t.Fatal("a record kept back did not re-arm the rebalance")
	}

	h.net.SetFault(nil)
	if _, dropped := stray.Rebalance(ctx); dropped != 1 {
		t.Fatalf("second pass dropped %d records, want 1", dropped)
	}
	for _, n := range h.nodes {
		rec, found, _ := n.Coordinator().GetLocal(key)
		if owner := slices.Contains(owners, n.Addr()); found != owner || (owner && rec.Ver != v2.Ver) {
			t.Fatalf("%s (owner %v) holds %+v (found %v) after the migration", n.Addr(), owner, rec, found)
		}
	}
}

func TestLongFailureTriggersReReplication(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	const records = 100
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Node 4 breaks down for good.
	h.eps[4].Close()
	// Long failure confirmation (seed LongFailAfter = 10 intervals) plus
	// spread plus rebalance.
	h.converge(30)
	for i := 0; i < 4; i++ {
		if st := h.nodes[i].Gossiper().StatusOf(addr(4)); st != gossip.StatusLongFail {
			t.Fatalf("node %d believes node 4 is %v", i, st)
		}
		if h.nodes[i].Ring().Contains(addr(4)) {
			t.Fatalf("node %d still has node 4 in its ring", i)
		}
	}
	// Replication factor restored among survivors.
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("key-%04d", i)
		copies := 0
		for j := 0; j < 4; j++ {
			if _, found, _ := h.nodes[j].Coordinator().GetLocal(key); found {
				copies++
			}
		}
		if copies < 3 {
			t.Fatalf("key %s has %d live copies after re-replication", key, copies)
		}
	}
}

func TestShortFailureHintsAndWriteback(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	// Node 3 goes quiet briefly.
	h.eps[3].Close()
	h.converge(4) // enough for short-fail belief, not long-fail
	const records = 60
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("hkey-%04d", i), []byte("v")); err != nil {
			t.Fatalf("Put with node down: %v", err)
		}
	}
	hinted := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		hinted = 0
		for _, n := range h.nodes {
			hinted += n.Coordinator().HintCount()
		}
		if hinted > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hinted == 0 {
		t.Fatal("no hints parked while a replica was down")
	}
	// Node 3 recovers; ticks deliver the hints. Background hint parking
	// from the quorum-returned puts may still be in flight, so converge
	// and poll until every record is fully replicated.
	h.eps[3].Reopen()
	fullyReplicated := func() (int, int) {
		remaining := 0
		for _, n := range h.nodes {
			remaining += n.Coordinator().HintCount()
		}
		short := 0
		for i := 0; i < records; i++ {
			key := fmt.Sprintf("hkey-%04d", i)
			copies := 0
			for _, n := range h.nodes {
				if _, found, _ := n.Coordinator().GetLocal(key); found {
					copies++
				}
			}
			if copies < 3 {
				short++
			}
		}
		return remaining, short
	}
	var remaining, short int
	recoveryDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(recoveryDeadline) {
		h.converge(2)
		if remaining, short = fullyReplicated(); remaining == 0 && short == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if remaining != 0 || short != 0 {
		t.Fatalf("after recovery: %d hints undelivered, %d keys under-replicated", remaining, short)
	}
}

// totalHints counts the hints parked across the cluster.
func (h *harness) totalHints() int {
	n := 0
	for _, node := range h.nodes {
		n += node.Coordinator().HintCount()
	}
	return n
}

// failPutsOn makes node's local store refuse every write while the returned
// flag is set. The hook goes in before any traffic, so flipping the flag is
// the only mutation the node's goroutines race with.
func failPutsOn(node *Node) *atomic.Bool {
	var fail atomic.Bool
	node.Coordinator().OnLocalOp = func(op string, _ int) error {
		if op == "put" && fail.Load() {
			return errors.New("injected: store refuses writes")
		}
		return nil
	}
	return &fail
}

// TestHintWritebackKeepsHintsTheTargetCouldNotApply: a replica that comes
// back with a store refusing every write acks no writeback batch, so every
// hint for it stays parked instead of being dropped for a record it never
// stored; once its store recovers, every hint delivers.
func TestHintWritebackKeepsHintsTheTargetCouldNotApply(t *testing.T) {
	h := newHarness(t, 5)
	failPuts := failPutsOn(h.nodes[3])
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	h.eps[3].Close()
	h.converge(4) // short-fail belief, not long-fail
	const records = 60
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("hkey-%04d", i), []byte("v")); err != nil {
			t.Fatalf("Put with node down: %v", err)
		}
	}
	// Hint parking finishes after the quorum returns: wait until the count
	// holds still.
	parked := h.totalHints()
	for stable := 0; stable < 20; {
		time.Sleep(5 * time.Millisecond)
		if n := h.totalHints(); n != parked {
			parked, stable = n, 0
		} else {
			stable++
		}
	}
	if parked == 0 {
		t.Fatal("no hints parked while a replica was down")
	}

	failPuts.Store(true)
	h.eps[3].Reopen()
	h.converge(6)
	if left := h.totalHints(); left != parked {
		t.Fatalf("%d of %d hints left parked after writeback to a replica that applied none", left, parked)
	}

	failPuts.Store(false)
	missing := -1
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		h.converge(2)
		missing = 0
		for i := 0; i < records; i++ {
			key := fmt.Sprintf("hkey-%04d", i)
			owners, _ := h.nodes[0].Ring().Successors(key, 3)
			if _, found, _ := h.nodes[3].Coordinator().GetLocal(key); slices.Contains(owners, addr(3)) && !found {
				missing++
			}
		}
		if missing == 0 && h.totalHints() == 0 {
			return
		}
	}
	t.Fatalf("after the store recovered: %d hints parked, %d of node 3's records missing", h.totalHints(), missing)
}

// TestStreamRangeFailsWhenTargetCannotApply: consensus snapshot catch-up
// reports a follower caught up only when it applied every record sent.
func TestStreamRangeFailsWhenTargetCannotApply(t *testing.T) {
	h := newHarness(t, 3)
	target := h.nodes[2]
	failPuts := failPutsOn(target)
	h.converge(8)
	ctx := context.Background()
	src := h.nodes[0]
	const records = 20
	for i := 0; i < records; i++ {
		rec := nwr.Record{Key: fmt.Sprintf("snap-%02d", i), Val: []byte("v"), IsData: true, Ver: int64(i + 1), Origin: "a"}
		if err := src.Coordinator().ApplyLocal(rec); err != nil {
			t.Fatal(err)
		}
	}
	failPuts.Store(true)
	if src.streamRangeTo(ctx, target.Addr(), 0, 0) {
		t.Fatal("snapshot transfer reported success to a target that applied nothing")
	}
	failPuts.Store(false)
	if !src.streamRangeTo(ctx, target.Addr(), 0, 0) {
		t.Fatal("snapshot transfer failed to a healthy target")
	}
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("snap-%02d", i)
		if rec, found, _ := target.Coordinator().GetLocal(key); !found || rec.Ver != int64(i+1) {
			t.Fatalf("target holds %s = %+v (found %v) after the transfer", key, rec, found)
		}
	}
}

// TestStreamRangePagesLargeRanges: snapshot catch-up of a range larger than
// one page of keys moves it a page at a time — one digest read per page —
// and still delivers every record.
func TestStreamRangePagesLargeRanges(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	src, target := h.nodes[0], h.nodes[2]
	const records = 2*pushPageKeys + 100
	for i := 0; i < records; i++ {
		rec := nwr.Record{Key: fmt.Sprintf("page-%05d", i), Val: []byte("v"), IsData: true, Ver: 1, Origin: "a"}
		if err := src.Coordinator().ApplyLocal(rec); err != nil {
			t.Fatal(err)
		}
	}
	var digestReads atomic.Int64
	h.net.SetFault(func(from, to, msgType string) error {
		if from == src.Addr() && to == target.Addr() && msgType == nwr.MsgGetReplica {
			digestReads.Add(1)
		}
		return nil
	})
	if !src.streamRangeTo(context.Background(), target.Addr(), 0, 0) {
		t.Fatal("snapshot transfer to a healthy target failed")
	}
	if got := digestReads.Load(); got < 3 {
		t.Fatalf("%d digest reads for %d records, want one per page of %d keys", got, records, pushPageKeys)
	}
	for i := 0; i < records; i++ {
		if _, found, _ := target.Coordinator().GetLocal(fmt.Sprintf("page-%05d", i)); !found {
			t.Fatalf("target lacks page-%05d after the transfer", i)
		}
	}
}

func TestReadsSurviveSingleNodeLoss(t *testing.T) {
	// R = 2: the test reads keys it has just written, and at (3,2,1) one
	// replica answering before the third write lands is a legal miss
	// (DESIGN.md §9) — 6 to 13 runs in 300 failed on it.
	h := newHarnessNWR(t, 5, 3, 2, 2)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		c.Put(ctx, fmt.Sprintf("rkey-%02d", i), []byte("v")) //nolint:errcheck
	}
	h.eps[2].Close()
	h.converge(4)
	for i := 0; i < 50; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("rkey-%02d", i)); err != nil {
			t.Fatalf("Get(%d) with a node down: %v", i, err)
		}
	}
}

func TestStatusDoc(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	c := h.client(t)
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.StringOr("addr", "") == "" {
		t.Fatalf("status missing addr: %s", st)
	}
	if v, ok := st.Get("ringSize"); !ok || v.(int64) != 3 {
		t.Fatalf("ringSize = %v", v)
	}
}

func TestUnknownMessage(t *testing.T) {
	h := newHarness(t, 1)
	_, err := h.nodes[0].handleMessage(context.Background(), transport.Message{Type: "nope"})
	if err == nil {
		t.Fatal("unknown message accepted")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTickDoesNotWaitForForcedCompaction: the forced compaction due every
// 600th tick runs off the tick goroutine, one at a time, and Close waits for
// it before closing the store.
func TestTickDoesNotWaitForForcedCompaction(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	compactStore = func(s *docstore.Store) error {
		calls.Add(1)
		<-release
		return s.Compact()
	}
	t.Cleanup(func() { compactStore = (*docstore.Store).Compact })
	n := newHarness(t, 1).nodes[0]

	for due := uint64(1); due <= 2; due++ {
		n.mu.Lock()
		n.tickCount = 600*due - 1
		n.mu.Unlock()
		ticked := make(chan struct{})
		go func() {
			n.Tick(context.Background())
			close(ticked)
		}()
		select {
		case <-ticked:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatal("Tick waited for the forced compaction")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		close(release)
		t.Fatalf("Close returned (%v) while the compaction was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d forced compactions ran, want 1 (the second came due with the first in flight)", got)
	}
}

// TestClientLeaderCacheIsKeyedByRange: the strong-op leader cache holds one
// entry per consensus range however many keys pass through it, forgets a
// node only while it is the one remembered, and starts over when the
// cluster reports a different range count.
func TestClientLeaderCacheIsKeyedByRange(t *testing.T) {
	c := &Client{}
	reply := func(ranges int64) bson.D { return bson.D{{Key: "ok", Value: true}, {Key: "ranges", Value: ranges}} }
	if c.leaderOf("k") != "" {
		t.Fatal("a client that has met no leader remembers one")
	}
	c.rememberLeader("k", "a", bson.D{{Key: "ok", Value: true}}) // an eventual-tier reply: no range count
	if c.leaderOf("k") != "" {
		t.Fatal("remembered a leader without knowing the range count")
	}
	for i := 0; i < 1000; i++ {
		c.rememberLeader(fmt.Sprintf("key-%d", i), "a", reply(4))
	}
	if len(c.leaders) != 4 {
		t.Fatalf("%d cache entries for 4 ranges", len(c.leaders))
	}
	if c.leaderOf("key-7") != "a" {
		t.Fatalf("leaderOf = %q, want a", c.leaderOf("key-7"))
	}
	c.forgetLeader("key-7", "b") // b was never remembered: a stale failure must not evict a
	if c.leaderOf("key-7") != "a" {
		t.Fatal("forgetting another node evicted the remembered leader")
	}
	c.forgetLeader("key-7", "a")
	if c.leaderOf("key-7") != "" || len(c.leaders) != 3 {
		t.Fatalf("after forget: leaderOf = %q, %d entries", c.leaderOf("key-7"), len(c.leaders))
	}
	c.rememberLeader("key-7", "b", reply(8))
	if len(c.leaders) != 1 || c.leaderOf("key-7") != "b" {
		t.Fatalf("after the range count changed: %d entries, leaderOf = %q", len(c.leaders), c.leaderOf("key-7"))
	}
}
