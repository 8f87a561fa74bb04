package mystore_test

import (
	"bytes"
	"context"
	"crypto/md5"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"mystore"
)

// must stops an example at its first error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// eventually polls cond every 20 ms for up to timeout and reports whether it
// came true: replication, hint writeback and repair finish in the
// background, after the operation that started them has returned.
func eventually(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); ; time.Sleep(20 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// records counts the replica records each node stores.
func records(cl *mystore.Cluster) (total int) {
	for _, n := range cl.Nodes() {
		total += n.Store().C("records").Len()
	}
	return total
}

// Boot an in-process cluster, store and read unstructured data, run a
// MongoDB-style query, and see every record replicated N times. The cluster
// runs the paper's five nodes (one seed, four normal nodes; Fig 10) at
// (N, W) = (3, 2) and reads at R = 2, so a read sees the write before it
// (W + R > N).
func Example_quickstart() {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5, N: 3, W: 2, R: 2})
	must(err)
	defer cl.Close()
	client, err := cl.Client()
	must(err)
	ctx := context.Background()

	// Raw unstructured data: the paper's running example is an XML
	// experiment component.
	must(client.Put(ctx, "Resistor5", []byte(`<component type="resistor" ohms="5"/>`)))
	val, err := client.Get(ctx, "Resistor5")
	must(err)
	fmt.Printf("Resistor5 = %s\n", val)

	// Structured documents: store BSON and query it with operators, the
	// capability MyStore keeps from MongoDB.
	for i := 0; i < 10; i++ {
		must(client.PutDoc(ctx, fmt.Sprintf("asset-%02d", i), mystore.Document{
			{Key: "kind", Value: []string{"scene", "video"}[i%2]},
			{Key: "bytes", Value: int64(1000 * (i + 1))},
		}))
	}
	results, err := client.Query(ctx, mystore.Filter{
		{Key: "doc.kind", Value: "scene"},
		{Key: "doc.bytes", Value: mystore.Document{{Key: "$gte", Value: int64(5000)}}},
	}, mystore.FindOptions{Sort: []mystore.SortField{{Field: "self-key"}}})
	must(err)
	fmt.Printf("scenes >= 5000 bytes: %d matches\n", len(results))
	for _, r := range results {
		b, _ := r.Doc.Get("bytes")
		fmt.Printf("  %s bytes=%v\n", r.Key, b)
	}

	// Deletes are tombstones; the key disappears from reads.
	must(client.Delete(ctx, "Resistor5"))
	_, err = client.Get(ctx, "Resistor5")
	fmt.Println("Resistor5 readable after delete:", err == nil)

	// Eleven keys (the tombstone included), each on N = 3 of the 5 nodes.
	fmt.Println("33 replica records:", eventually(5*time.Second, func() bool { return records(cl) == 33 }))
	// Output:
	// Resistor5 = <component type="resistor" ohms="5"/>
	// scenes >= 5000 bytes: 3 matches
	//   asset-04 bytes=5000
	//   asset-06 bytes=7000
	//   asset-08 bytes=9000
	// Resistor5 readable after delete: false
	// 33 replica records: true
}

// Segment a large file into replicated chunks with a checksummed manifest
// (the paper's §7 future work), read it back with a node down, and watch
// anti-entropy restore a node whose replicas were wiped.
func Example_largeObjects() {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5, R: 2, GossipInterval: 50 * time.Millisecond})
	must(err)
	defer cl.Close()
	client, err := cl.Client()
	must(err)
	ctx := context.Background()

	// A 3 MiB "guideline video".
	video := make([]byte, 3<<20+512)
	rand.New(rand.NewSource(1)).Read(video) //nolint:errcheck
	const key = "videos/chemistry-lab-intro"
	m, err := mystore.PutLarge(ctx, client, key, bytes.NewReader(video), mystore.LargeObjectConfig{ChunkSize: 1 << 20})
	must(err)
	fmt.Printf("uploaded %d bytes as %d chunks of %d, md5 matches: %v\n",
		m.Size, m.Chunks, m.ChunkSize, m.MD5 == fmt.Sprintf("%x", md5.Sum(video)))

	// Streaming download with checksum verification.
	var sink bytes.Buffer
	_, err = mystore.GetLargeTo(ctx, client, key, &sink)
	must(err)
	fmt.Println("downloaded intact:", bytes.Equal(sink.Bytes(), video))

	// Node loss: chunks stay available through their independent replicas.
	cl.StopNode(2)
	got, err := mystore.GetLarge(ctx, client, key)
	fmt.Println("intact with node 2 down:", err == nil && bytes.Equal(got, video))
	cl.RestartNode(2)

	// Anti-entropy: silently wipe one node's replicas, then let the
	// background digests repair it without any read touching the keys.
	coll := cl.Nodes()[3].Store().C("records")
	before := coll.Len()
	all, err := coll.Find(nil, mystore.FindOptions{})
	must(err)
	for _, d := range all {
		id, _ := d.Get("_id")
		_, err := coll.Delete(id)
		must(err)
	}
	fmt.Println("node 3 wiped:", before > 0 && coll.Len() == 0)
	fmt.Println("node 3 restored by anti-entropy:", eventually(30*time.Second, func() bool {
		for _, n := range cl.Nodes() {
			n.AntiEntropyRound(ctx)
		}
		return coll.Len() >= before
	}))

	// Delete removes the manifest and every chunk.
	must(mystore.DeleteLarge(ctx, client, key))
	_, err = mystore.StatLarge(ctx, client, key)
	fmt.Println("stat after delete fails:", err != nil)
	// Output:
	// uploaded 3146240 bytes as 4 chunks of 1048576, md5 matches: true
	// downloaded intact: true
	// intact with node 2 down: true
	// node 3 wiped: true
	// node 3 restored by anti-entropy: true
	// stat after delete fails: true
}

// The full stack of paper Fig 1 over real HTTP: the RESTful interface,
// URI-signature authentication (Fig 2), the logical worker pool, the LRU
// cache tier, and the storage cluster behind them.
func Example_restGateway() {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5, R: 2})
	must(err)
	defer cl.Close()
	client, err := cl.Client()
	must(err)

	// A gateway with authentication and a two-server cache tier.
	tokens := mystore.NewTokenDB()
	secret, err := tokens.Register("veepalms-frontend")
	must(err)
	gw := mystore.NewGateway(mystore.ClusterBackend{Client: client}, mystore.GatewayOptions{
		CacheServers: 2,
		CacheBytes:   32 << 20,
		Auth:         tokens,
		Workers:      8,
	})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	do := func(method, uri, body string) (*http.Response, string) {
		req, err := http.NewRequest(method, srv.URL+uri, strings.NewReader(body))
		must(err)
		resp, err := http.DefaultClient.Do(req)
		must(err)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		must(err)
		return resp, string(b)
	}
	// The signing flow of Fig 2: fetch a TOKEN, digest (token, URI, secret)
	// with MD5, and attach both to the request URI.
	sign := func(uri string) string {
		_, tok := do(http.MethodGet, "/token?user=veepalms-frontend", "")
		signed, err := mystore.AuthorizeURI(uri, tok, secret)
		must(err)
		return signed
	}

	// An unsigned request is refused: RESTful interfaces are stateless, so
	// authorization rides on the URI signature.
	resp, _ := do(http.MethodGet, "/data/secret-scene", "")
	fmt.Println("unsigned GET:", resp.StatusCode)

	// A signed POST writes through the cache tier, so the GETs after it hit.
	resp, _ = do(http.MethodPost, sign("/data/secret-scene"), `<scene discipline="chemistry"/>`)
	fmt.Println("signed POST:", resp.StatusCode)
	for i := 1; i <= 3; i++ {
		resp, body := do(http.MethodGet, sign("/data/secret-scene"), "")
		fmt.Printf("signed GET #%d: %d, X-Cache=%s, %q\n", i, resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	// A POST without a key: the gateway creates the item and returns its key.
	resp, key := do(http.MethodPost, sign("/data/"), "anonymous payload")
	resp2, body := do(http.MethodGet, sign("/data/"+key), "")
	fmt.Printf("keyless POST: %d, its key reads back %d %q\n", resp.StatusCode, resp2.StatusCode, body)

	// Tokens are single-use, so a replayed URI is refused.
	uri := sign("/data/secret-scene")
	first, _ := do(http.MethodGet, uri, "")
	replay, _ := do(http.MethodGet, uri, "")
	fmt.Println("token use, then replay:", first.StatusCode, replay.StatusCode)
	// Output:
	// unsigned GET: 403
	// signed POST: 200
	// signed GET #1: 200, X-Cache=hit, "<scene discipline=\"chemistry\"/>"
	// signed GET #2: 200, X-Cache=hit, "<scene discipline=\"chemistry\"/>"
	// signed GET #3: 200, X-Cache=hit, "<scene discipline=\"chemistry\"/>"
	// keyless POST: 201, its key reads back 200 "anonymous payload"
	// token use, then replay: 200 403
}

// MyStore's failure machinery (paper §5.2.4): writes stay available through
// a short failure by sloppy quorum and hinted handoff, the hints drain when
// the node returns, and a permanent breakdown is confirmed by the seed,
// shrinks the ring, and re-replicates every record back to N copies.
func Example_failover() {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5, GossipInterval: 50 * time.Millisecond})
	must(err)
	defer cl.Close()
	client, err := cl.Client()
	must(err)
	ctx := context.Background()

	put := func(n int, prefix string) (ok, failed int) {
		for i := 0; i < n; i++ {
			if client.Put(ctx, fmt.Sprintf("%s-%04d", prefix, i), []byte("payload")) != nil {
				failed++
			} else {
				ok++
			}
		}
		return ok, failed
	}
	// replicas counts the copies of prefix's n keys on the nodes not skipped.
	replicas := func(prefix string, n, skip int) (total int) {
		for i := 0; i < n; i++ {
			for j, node := range cl.Nodes() {
				if _, found, _ := node.Coordinator().GetLocal(fmt.Sprintf("%s-%04d", prefix, i)); found && j != skip {
					total++
				}
			}
		}
		return total
	}
	hints := func() (total int) {
		for _, node := range cl.Nodes() {
			total += node.Coordinator().HintCount()
		}
		return total
	}

	ok, failed := put(100, "base")
	fmt.Printf("healthy: %d puts ok, %d failed\n", ok, failed)
	fmt.Println("300 replicas:", eventually(5*time.Second, func() bool { return replicas("base", 100, -1) == 300 }))

	// A short failure: writes meant for node 3 park as hints elsewhere.
	cl.StopNode(3)
	ok, failed = put(100, "short")
	fmt.Printf("node 3 down: %d puts ok, %d failed, hints parked: %v\n", ok, failed, hints() > 0)
	cl.RestartNode(3)
	fmt.Println("hints written back:", eventually(10*time.Second, func() bool {
		return hints() == 0 && replicas("short", 100, -1) == 300
	}))

	// A permanent breakdown: the seed confirms the long failure, every
	// survivor drops node 4 from its ring, and re-replication restores
	// three copies of every record on the four survivors.
	cl.StopNode(4)
	fmt.Println("node 4 left every ring:", eventually(10*time.Second, func() bool {
		for i, node := range cl.Nodes() {
			if i != 4 && node.Ring().Contains(cl.Addrs()[4]) {
				return false
			}
		}
		return true
	}))
	fmt.Println("300 replicas on the survivors:", eventually(20*time.Second, func() bool {
		return replicas("base", 100, 4) == 300
	}))
	ok, failed = put(50, "after")
	misses := 0
	for i := 0; i < 100; i++ {
		if _, err := client.Get(ctx, fmt.Sprintf("base-%04d", i)); err != nil {
			misses++
		}
	}
	fmt.Printf("after breakdown: %d puts ok, %d failed, %d of 100 reads missed\n", ok, failed, misses)
	// Output:
	// healthy: 100 puts ok, 0 failed
	// 300 replicas: true
	// node 3 down: 100 puts ok, 0 failed, hints parked: true
	// hints written back: true
	// node 4 left every ring: true
	// 300 replicas on the survivors: true
	// after breakdown: 50 puts ok, 0 failed, 0 of 100 reads missed
}

// The workload that motivated MyStore (paper §1, §6): VeePalms, a
// virtual-experiment education platform that stores XML experiment
// components and scenes, guideline videos and experiment reports. Load a
// small content library, run the platform's characteristic queries, then a
// lab session of concurrent students.
func Example_veePalms() {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
	must(err)
	defer cl.Close()
	client, err := cl.Client()
	must(err)
	ctx := context.Background()

	// The content library, at a hundredth of the real sizes.
	disciplines := []string{"physics", "chemistry", "biology", "electronics"}
	kinds := []struct {
		name string
		size int
	}{
		{"component", 64},   // XML experiment components
		{"scene", 600},      // XML scenes
		{"video", 20 << 10}, // guideline videos
		{"report", 240},     // experiment reports (PDF/DOC)
	}
	var keys []string
	rng := rand.New(rand.NewSource(1))
	for d, discipline := range disciplines {
		for k, kind := range kinds {
			for i := 0; i < 6; i++ {
				key := fmt.Sprintf("%s/%s/%03d", discipline, kind.name, i)
				size := kind.size + rng.Intn(kind.size/2+1)
				must(client.PutDoc(ctx, key, mystore.Document{
					{Key: "kind", Value: kind.name},
					{Key: "discipline", Value: discipline},
					{Key: "bytes", Value: int64(size)},
					{Key: "course", Value: fmt.Sprintf("C%d%d", d+1, k+1)},
					{Key: "payload", Value: make([]byte, size)},
				}))
				keys = append(keys, key)
			}
		}
	}
	fmt.Printf("loaded %d assets across %d disciplines\n", len(keys), len(disciplines))

	// Everything a course needs, MongoDB-style.
	results, err := client.Query(ctx, mystore.Filter{
		{Key: "doc.discipline", Value: "physics"},
		{Key: "doc.kind", Value: mystore.Document{{Key: "$in", Value: mystore.A{"component", "scene"}}}},
	}, mystore.FindOptions{})
	must(err)
	fmt.Println("physics components and scenes:", len(results))
	// Videos over 25 KiB, for segmentation planning.
	results, err = client.Query(ctx, mystore.Filter{
		{Key: "doc.kind", Value: "video"},
		{Key: "doc.bytes", Value: mystore.Document{{Key: "$gt", Value: int64(25 << 10)}}},
	}, mystore.FindOptions{})
	must(err)
	fmt.Println("videos over 25 KiB:", len(results))
	// A regex over the keyspace: a query Dynamo-style stores cannot answer.
	results, err = client.Query(ctx, mystore.Filter{
		{Key: "self-key", Value: mystore.Document{{Key: "$regex", Value: "^electronics/scene/"}}},
	}, mystore.FindOptions{Limit: 5})
	must(err)
	fmt.Println("electronics scenes, first 5:", len(results))

	// A lab session: students read scenes and components, and now and then
	// submit a report.
	const students, actions = 20, 10
	var (
		wg                      sync.WaitGroup
		mu                      sync.Mutex
		reads, writes, failures int
	)
	for s := 0; s < students; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < actions; i++ {
				var err error
				read := srng.Intn(10) < 8
				if read {
					_, err = client.Get(ctx, keys[srng.Intn(len(keys))])
				} else {
					err = client.PutDoc(ctx, fmt.Sprintf("submissions/s%02d/r%02d", s, i), mystore.Document{
						{Key: "kind", Value: "submission"},
						{Key: "student", Value: fmt.Sprintf("s%02d", s)},
						{Key: "payload", Value: make([]byte, 256)},
					})
				}
				mu.Lock()
				switch {
				case err != nil:
					failures++
				case read:
					reads++
				default:
					writes++
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	fmt.Printf("lab session: %d reads, %d writes, %d failures\n", reads, writes, failures)

	// Submissions are queryable at once.
	subs, err := client.Query(ctx, mystore.Filter{{Key: "doc.kind", Value: "submission"}}, mystore.FindOptions{})
	must(err)
	fmt.Println("submissions stored:", len(subs) == writes)
	// Output:
	// loaded 96 assets across 4 disciplines
	// physics components and scenes: 12
	// videos over 25 KiB: 12
	// electronics scenes, first 5: 5
	// lab session: 161 reads, 39 writes, 0 failures
	// submissions stored: true
}
