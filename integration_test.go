package mystore_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mystore"
)

// TestFullStackUnderChurn drives the complete paper Fig 1 stack — REST
// gateway with URI signatures and cache tier, logical worker pool, 5-node
// storage cluster — with concurrent HTTP clients while a storage node
// bounces. Every acknowledged write must remain readable.
func TestFullStackUnderChurn(t *testing.T) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes:          5,
		GossipInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}

	tokens := mystore.NewTokenDB()
	secret, err := tokens.Register("frontend")
	if err != nil {
		t.Fatal(err)
	}
	gw := mystore.NewGateway(mystore.ClusterBackend{Client: client}, mystore.GatewayOptions{
		CacheServers: 2,
		CacheBytes:   16 << 20,
		Auth:         tokens,
		Workers:      16,
	})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	sign := func(t *testing.T, uri string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/token?user=frontend")
		if err != nil {
			t.Fatal(err)
		}
		tok, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		authorized, err := mystore.AuthorizeURI(uri, string(tok), secret)
		if err != nil {
			t.Fatal(err)
		}
		return srv.URL + authorized
	}

	// Churn: bounce node 3 mid-run.
	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 3; i++ {
			select {
			case <-stopChurn:
				return
			case <-time.After(80 * time.Millisecond):
			}
			cl.StopNode(3)
			select {
			case <-stopChurn:
				cl.RestartNode(3)
				return
			case <-time.After(80 * time.Millisecond):
			}
			cl.RestartNode(3)
		}
	}()

	const writers, perWriter = 6, 15
	var mu sync.Mutex
	written := map[string]string{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("stack-%d-%d", w, i)
				val := fmt.Sprintf("value-%d-%d", w, i)
				resp, err := http.Post(sign(t, "/data/"+key), "application/octet-stream",
					strings.NewReader(val))
				if err != nil {
					t.Errorf("POST %s: %v", key, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					continue // overload shedding is allowed; unacked writes carry no promise
				}
				mu.Lock()
				written[key] = val
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stopChurn)
	<-churnDone
	cl.RestartNode(3)
	if !cl.WaitConverged(5 * time.Second) {
		t.Fatal("cluster did not re-converge after churn")
	}

	// Every acknowledged write must be readable through the stack.
	mu.Lock()
	defer mu.Unlock()
	if len(written) == 0 {
		t.Fatal("no writes were acknowledged")
	}
	for key, want := range written {
		resp, err := http.Get(sign(t, "/data/"+key))
		if err != nil {
			t.Fatalf("GET %s: %v", key, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", key, resp.StatusCode)
		}
		if string(body) != want {
			t.Fatalf("GET %s = %q, want %q", key, body, want)
		}
	}
	t.Logf("verified %d acknowledged writes across churn", len(written))
}

// TestDistributedQueryThroughStack checks query consistency seen through a
// fresh client while writes arrive through another.
func TestDistributedQueryThroughStack(t *testing.T) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 3, GossipInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		doc := mystore.Document{
			{Key: "idx", Value: int64(i)},
			{Key: "shape", Value: []string{"circle", "square"}[i%2]},
		}
		if err := writer.PutDoc(ctx, fmt.Sprintf("q-%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	results, err := reader.Query(ctx, mystore.Filter{
		{Key: "doc.shape", Value: "circle"},
		{Key: "doc.idx", Value: mystore.Document{{Key: "$lt", Value: int64(10)}}},
	}, mystore.FindOptions{Sort: []mystore.SortField{{Field: "self-key"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 { // idx 0,2,4,6,8
		t.Fatalf("query = %d results, want 5", len(results))
	}
	for i, r := range results {
		want := fmt.Sprintf("q-%02d", i*2)
		if r.Key != want {
			t.Fatalf("results[%d] = %s, want %s", i, r.Key, want)
		}
	}
}
