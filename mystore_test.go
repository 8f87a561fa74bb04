package mystore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mystore/internal/cluster"
	"mystore/internal/docstore"
	"mystore/internal/nwr"
)

// startTestCluster starts a cluster with opts. The default quorum is the
// paper's (N,W,R) = (3,2,1), at which a read may miss the caller's own acked
// write (DESIGN.md §9); tests that read a key straight after writing it pass
// R: 2 so that W + R > N.
func startTestCluster(t *testing.T, opts ClusterOptions) *Cluster {
	t.Helper()
	if opts.GossipInterval == 0 {
		opts.GossipInterval = 20 * time.Millisecond
	}
	c, err := StartCluster(opts)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStartClusterDefaultsAndConvergence(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{})
	if len(c.Nodes()) != 5 {
		t.Fatalf("nodes = %d, want default 5", len(c.Nodes()))
	}
	if !c.WaitConverged(5 * time.Second) {
		t.Fatal("cluster did not converge")
	}
	for i, n := range c.Nodes() {
		if n.Ring().Len() != 5 {
			t.Fatalf("node %d ring = %d members", i, n.Ring().Len())
		}
	}
}

func TestPublicAPICrud(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 5, R: 2})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.Put(ctx, "scene-1", []byte("<scene/>")); err != nil {
		t.Fatal(err)
	}
	val, err := client.Get(ctx, "scene-1")
	if err != nil || string(val) != "<scene/>" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if err := client.Delete(ctx, "scene-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(ctx, "scene-1"); err == nil {
		t.Fatal("Get after delete succeeded")
	}
}

func TestPublicAPIDocQuery(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 3, R: 2})
	client, _ := c.Client()
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		doc := Document{
			{Key: "discipline", Value: []string{"physics", "chemistry"}[i%2]},
			{Key: "n", Value: int64(i)},
		}
		if err := client.PutDoc(ctx, fmt.Sprintf("exp-%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	results, err := client.Query(ctx, Filter{
		{Key: "doc.discipline", Value: "physics"},
		{Key: "doc.n", Value: Document{{Key: "$lt", Value: int64(6)}}},
	}, FindOptions{Sort: []SortField{{Field: "self-key"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("query = %d results, want 3 (n=0,2,4)", len(results))
	}
	doc, err := client.GetDoc(ctx, "exp-03")
	if err != nil || doc.StringOr("discipline", "") != "chemistry" {
		t.Fatalf("GetDoc = %s, %v", doc, err)
	}
}

func TestClusterSurvivesNodeStopAndRestart(t *testing.T) {
	// Reads its own writes, so W + R > N (DESIGN.md §9): at (3,2,1) one Get in
	// ~600 lands on the replica the acked Put has not reached yet.
	c := startTestCluster(t, ClusterOptions{Nodes: 5, R: 2})
	client, _ := c.Client()
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if err := client.Put(ctx, fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.StopNode(2)
	// Writes and reads continue during the outage.
	for i := 0; i < 30; i++ {
		if _, err := client.Get(ctx, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("Get during outage: %v", err)
		}
	}
	if err := client.Put(ctx, "during-outage", []byte("v")); err != nil {
		t.Fatalf("Put during outage: %v", err)
	}
	c.RestartNode(2)
	time.Sleep(200 * time.Millisecond) // let hints deliver
	if _, err := client.Get(ctx, "during-outage"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
}

func TestClusterAddNode(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 4})
	client, _ := c.Client()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		client.Put(ctx, fmt.Sprintf("k%02d", i), []byte("v")) //nolint:errcheck
	}
	node, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if node.Store().C("records").Len() > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if node.Store().C("records").Len() == 0 {
		t.Fatal("new node received no migrated data")
	}
	for i := 0; i < 40; i++ {
		if _, err := client.Get(ctx, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("Get(%d) after join: %v", i, err)
		}
	}
}

// TestAddNodeRefusedOnStrongCluster: consensus group membership is pinned at
// group creation, so a strong cluster refuses to grow, and the refusal
// leaves the ring and the strong tier as they were.
func TestAddNodeRefusedOnStrongCluster(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 3, StrongRanges: 4})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.StrongPut(ctx, "pinned", []byte("before")); err != nil {
		t.Fatalf("StrongPut: %v", err)
	}
	if _, err := c.AddNode(); err == nil || !strings.Contains(err.Error(), "consensus group membership is pinned") {
		t.Fatalf("AddNode on a strong cluster = %v, want a refusal naming pinned consensus membership", err)
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("cluster has %d nodes after the refused AddNode, want 3", got)
	}
	for i, n := range c.Nodes() {
		if got := n.Ring().Len(); got != 3 {
			t.Fatalf("node %d ring = %d members after the refused AddNode, want 3", i, got)
		}
	}
	if err := client.StrongPut(ctx, "pinned", []byte("after")); err != nil {
		t.Fatalf("StrongPut after the refused AddNode: %v", err)
	}
	if got, err := client.StrongGet(ctx, "pinned"); err != nil || string(got) != "after" {
		t.Fatalf("StrongGet = %q, %v; want after", got, err)
	}
}

// TestScratchDirectoriesAreRemoved: a cluster without a DataDir runs each
// node's store and consensus log in a scratch directory. A killed or crashed
// node's directory goes at once, its fresh restart starts empty in a new one,
// and closing the cluster removes the rest.
func TestScratchDirectoriesAreRemoved(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 5, StrongRanges: 4})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("scratch-%02d", i)
		if err := client.StrongPut(ctx, key+"-strong", []byte(key)); err != nil {
			t.Fatalf("StrongPut %s: %v", key, err)
		}
		if err := client.Put(ctx, key, []byte(key)); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	var dirs []string
	for i, n := range c.Nodes() {
		dir := n.Store().Dir()
		if _, err := os.Stat(filepath.Join(dir, "consensus")); err != nil {
			t.Fatalf("node %d: no consensus log in its scratch directory: %v", i, err)
		}
		dirs = append(dirs, dir)
	}
	gone := func(what, dir string) {
		t.Helper()
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: scratch directory %s still there (stat: %v)", what, dir, err)
		}
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	gone("after KillNode", dirs[1])
	if err := c.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	gone("after CrashNode", dirs[2])
	restarted, err := c.RestartNodeFresh(1, func(n *Node) {
		if got := n.Store().C(nwr.RecordCollection).Len(); got != 0 {
			t.Errorf("a diskless node restarted with %d records, want none", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if dir := restarted.Store().Dir(); dir == dirs[1] {
		t.Fatalf("the restarted node reuses %s", dir)
	} else {
		dirs = append(dirs, dir)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, dir := range dirs {
		gone(fmt.Sprintf("after Close, directory %d", i), dir)
	}
}

func TestGatewayOverCluster(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 3})
	client, _ := c.Client()
	gw := NewGateway(ClusterBackend{Client: client}, GatewayOptions{CacheServers: 2, Workers: 4})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/data/web-key", "application/octet-stream",
		strings.NewReader("via-http"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %v / %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/data/web-key")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "via-http" {
		t.Fatalf("GET body = %q", body)
	}
	resp, _ = http.Get(srv.URL + "/data/absent-key")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key status = %d, want 404", resp.StatusCode)
	}
}

// TestGatewayFailedReadQuorumIs502: a read that reaches none of the key's
// replicas is a failure, not an absent key, so the gateway answers 502.
func TestGatewayFailedReadQuorumIs502(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 5})
	replicas, err := c.Nodes()[0].Ring().Successors("k", 3)
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for i, a := range c.Addrs() {
		if slices.Contains(replicas, a) {
			c.StopNode(i)
		} else {
			live = append(live, a)
		}
	}
	ep, err := c.Network().Endpoint("client-live:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.Connect(context.Background(), ep, live, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(ClusterBackend{Client: client}, GatewayOptions{Workers: 2})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/data/k")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("GET with every replica down = %d %q, want 502", resp.StatusCode, body)
	}
}

// TestGatewayStrongDelete: a strong DELETE through the gateway commits a
// tombstone through the range's log, after which a strong GET answers 404
// and Client.StrongGet ErrKeyNotFound. Eventual reads of the key are not
// checked: at R = 1 one may still see the value (DESIGN.md §9).
func TestGatewayStrongDelete(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 3, StrongRanges: 2})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(ClusterBackend{Client: client}, GatewayOptions{CacheServers: 2, Workers: 4})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	url := srv.URL + "/data/strong-key?consistency=strong"
	do := func(method string, body io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(got)
	}

	if code, body := do(http.MethodPost, strings.NewReader("v")); code != http.StatusOK {
		t.Fatalf("strong POST = %d %q", code, body)
	}
	if code, body := do(http.MethodGet, nil); code != http.StatusOK || body != "v" {
		t.Fatalf("strong GET after POST = %d %q, want 200 \"v\"", code, body)
	}
	if code, body := do(http.MethodDelete, nil); code != http.StatusOK {
		t.Fatalf("strong DELETE = %d %q", code, body)
	}
	if code, body := do(http.MethodGet, nil); code != http.StatusNotFound {
		t.Fatalf("strong GET after DELETE = %d %q, want 404", code, body)
	}
	if _, err := client.StrongGet(context.Background(), "strong-key"); !errors.Is(err, cluster.ErrKeyNotFound) {
		t.Fatalf("Client.StrongGet after DELETE: %v, want ErrKeyNotFound", err)
	}
}

func TestNetworkedClusterOverTCP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Boot three TCP nodes; the first is the seed.
	// R: 2 — the test reads its own write (W + R > N).
	seedNode, err := ListenNode(ctx, "127.0.0.1:0", NodeOptions{GossipInterval: 20 * time.Millisecond, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer seedNode.Close()
	seeds := []string{seedNode.Addr()}
	var nodes []*Node
	nodes = append(nodes, seedNode)
	for i := 0; i < 2; i++ {
		n, err := ListenNode(ctx, "127.0.0.1:0", NodeOptions{Seeds: seeds, GossipInterval: 20 * time.Millisecond, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	// Recreate the seed's view: its own seeds list points at itself.
	var addrs []string
	for _, n := range nodes {
		addrs = append(addrs, n.Addr())
	}
	// Wait for membership.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[0].Ring().Len() == 3 && nodes[2].Ring().Len() == 3 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	client, err := Connect(ctx, addrs, ClientOptions{AutoRetry: true})
	if err != nil {
		t.Fatalf("Connect over TCP: %v", err)
	}
	if err := client.Put(ctx, "tcp-key", []byte("tcp-value")); err != nil {
		t.Fatalf("Put over TCP: %v", err)
	}
	val, err := client.Get(ctx, "tcp-key")
	if err != nil || string(val) != "tcp-value" {
		t.Fatalf("Get over TCP = %q, %v", val, err)
	}
}

func TestClusterFacadeEdges(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 2})
	// Out-of-range node operations are harmless no-ops.
	c.StopNode(-1)
	c.StopNode(99)
	c.RestartNode(-1)
	c.RestartNode(99)
	if got := len(c.Addrs()); got != 2 {
		t.Fatalf("Addrs = %d", got)
	}
	// Convergence with a node down: the live subset still converges.
	c.StopNode(1)
	if !c.WaitConverged(3 * time.Second) {
		t.Fatal("single live node should trivially converge")
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectFailsWithNoNodes(t *testing.T) {
	if _, err := Connect(context.Background(), nil, ClientOptions{}); !errors.Is(err, cluster.ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestWeightedCluster(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{
		Nodes:   3,
		Weights: func(i int) int { return i + 1 }, // capacities 1, 2, 3
	})
	client, _ := c.Client()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		client.Put(ctx, fmt.Sprintf("w-key-%04d", i), []byte("v")) //nolint:errcheck
	}
	// The heaviest node should hold at least as many records as the
	// lightest (probabilistic, wide margin).
	l0 := c.Nodes()[0].Store().C("records").Len()
	l2 := c.Nodes()[2].Store().C("records").Len()
	if l2 <= l0/2 {
		t.Fatalf("weight-3 node holds %d, weight-1 node %d", l2, l0)
	}
}

func TestLargeObjectOverCluster(t *testing.T) {
	c := startTestCluster(t, ClusterOptions{Nodes: 5, R: 2})
	client, _ := c.Client()
	ctx := context.Background()
	payload := make([]byte, 2<<20+77) // a guideline-video-sized object
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	m, err := PutLarge(ctx, client, "video/guide-1", bytesReader(payload), LargeObjectConfig{ChunkSize: 256 << 10})
	if err != nil {
		t.Fatalf("PutLarge: %v", err)
	}
	if m.Chunks != 9 {
		t.Fatalf("chunks = %d, want 9", m.Chunks)
	}
	got, err := GetLarge(ctx, client, "video/guide-1")
	if err != nil {
		t.Fatalf("GetLarge: %v", err)
	}
	if len(got) != len(payload) {
		t.Fatalf("GetLarge returned %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload differs at byte %d", i)
		}
	}
	st, err := StatLarge(ctx, client, "video/guide-1")
	if err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("StatLarge = %+v, %v", st, err)
	}
	// Chunks survive a node outage (each replicates independently).
	c.StopNode(2)
	if _, err := GetLarge(ctx, client, "video/guide-1"); err != nil {
		t.Fatalf("GetLarge with a node down: %v", err)
	}
	c.RestartNode(2)
	// Distributed queries must not leak internal chunk records: only the
	// manifest key is visible.
	results, err := client.Query(ctx, Filter{}, FindOptions{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for _, r := range results {
		if strings.ContainsRune(r.Key, 0) {
			t.Fatalf("chunk key leaked into query results: %q", r.Key)
		}
	}
	if len(results) != 1 || results[0].Key != "video/guide-1" {
		t.Fatalf("query results = %d (%v), want just the manifest", len(results), results)
	}
	if err := DeleteLarge(ctx, client, "video/guide-1"); err != nil {
		t.Fatalf("DeleteLarge: %v", err)
	}
	if _, err := StatLarge(ctx, client, "video/guide-1"); err == nil {
		t.Fatal("manifest survives DeleteLarge")
	}
}

func bytesReader(b []byte) *strings.Reader {
	// strings.Reader avoids bytes import churn; the payload is binary-safe.
	return strings.NewReader(string(b))
}

// recordSnapshot captures a node's local records collection as a printable
// map, so two WAL replays of the same directory can be compared.
func recordSnapshot(t *testing.T, n *Node) map[string]string {
	t.Helper()
	docs, err := n.Store().C("records").Find(docstore.Filter{}, docstore.FindOptions{})
	if err != nil {
		t.Fatalf("scan records: %v", err)
	}
	out := make(map[string]string, len(docs))
	for _, d := range docs {
		key, _ := d.Get("key")
		out[fmt.Sprint(key)] = fmt.Sprint(d)
	}
	return out
}

func TestCrashRestartRecoversAckedWrites(t *testing.T) {
	// A node dies mid-quorum-write (hard crash: process gone, endpoint dark)
	// and a fresh process restarts on the same WAL directory. Every write
	// acknowledged before or during the outage must remain readable, and a
	// second replay of the same WAL must rebuild the identical store.
	dir := t.TempDir()
	c := startTestCluster(t, ClusterOptions{Nodes: 5, DataDir: dir, Durable: true})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Writer runs across the crash so some quorum writes are in flight when
	// the node dies; failed Puts are allowed, acked ones are the contract.
	var mu sync.Mutex
	acked := map[string][]byte{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("crash-%04d", i)
			val := []byte(fmt.Sprintf("v%04d", i))
			opCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			err := client.Put(opCtx, key, val)
			cancel()
			if err == nil {
				mu.Lock()
				acked[key] = val
				mu.Unlock()
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // build up a write stream
	if err := c.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // writes continue against the hole
	if _, err := c.RestartNodeFresh(2); err != nil {
		t.Fatalf("restart from WAL: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	want := make(map[string][]byte, len(acked))
	for k, v := range acked {
		want[k] = v
	}
	mu.Unlock()
	if len(want) == 0 {
		t.Fatal("no writes were acked")
	}
	c.WaitConverged(5 * time.Second)

	// Every acked write must read back with its value; recovery (hint
	// writeback, read repair) gets a bounded window.
	deadline := time.Now().Add(10 * time.Second)
	for key, val := range want {
		for {
			got, err := client.Get(ctx, key)
			if err == nil {
				if !bytes.Equal(got, val) {
					t.Fatalf("key %s = %q, want %q", key, got, val)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("acked key %s unreadable after crash-restart: %v", key, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Replay-equivalence: crash the recovered node again with no writes in
	// between; a second WAL replay must produce the same records.
	first := recordSnapshot(t, c.Nodes()[2])
	if len(first) == 0 {
		t.Fatal("restarted node recovered no records")
	}
	if err := c.CrashNode(2); err != nil {
		t.Fatal(err)
	}
	node, err := c.RestartNodeFresh(2)
	if err != nil {
		t.Fatal(err)
	}
	second := recordSnapshot(t, node)
	// Background replication may append between the snapshot and the second
	// crash, so the second replay can hold more — but never less or different.
	for k, v := range first {
		if second[k] != v {
			t.Fatalf("replay divergence at %s:\n first: %s\nsecond: %s", k, v, second[k])
		}
	}
}

func TestClusterWithPersistence(t *testing.T) {
	dir := t.TempDir()
	c := startTestCluster(t, ClusterOptions{Nodes: 3, DataDir: dir})
	client, _ := c.Client()
	if err := client.Put(context.Background(), "durable", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Stores persisted under the data dir; the last replication may land
	// just after the quorum return.
	var total int
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		total = 0
		for _, n := range c.Nodes() {
			total += n.Store().C("records").Len()
		}
		if total == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total != 3 {
		t.Fatalf("replicas = %d", total)
	}
}
