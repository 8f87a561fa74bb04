package rest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mystore/internal/auth"
	"mystore/internal/cache"
)

// mapBackend is an in-memory Backend for gateway tests.
type mapBackend struct {
	mu   sync.Mutex
	data map[string][]byte
	gets int
}

func newMapBackend() *mapBackend { return &mapBackend{data: map[string][]byte{}} }

func (b *mapBackend) Put(_ context.Context, key string, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data[key] = append([]byte(nil), val...)
	return nil
}

func (b *mapBackend) Get(_ context.Context, key string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	v, ok := b.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

func (b *mapBackend) Delete(_ context.Context, key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.data, key)
	return nil
}

func (b *mapBackend) getCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gets
}

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *mapBackend, *httptest.Server) {
	t.Helper()
	backend := newMapBackend()
	gw := NewGateway(backend, cfg)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { srv.Close(); gw.Close() })
	return gw, backend, srv
}

func TestCRUDOverHTTP(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	// POST with key.
	resp, err := http.Post(srv.URL+"/data/scene1", "application/octet-stream",
		strings.NewReader("xml-content"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %v, status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	// GET.
	resp, err = http.Get(srv.URL + "/data/scene1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %v, status %d", err, resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "xml-content" {
		t.Fatalf("GET body = %q", body)
	}
	// DELETE.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/data/scene1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v, status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	// GET now 404s.
	resp, _ = http.Get(srv.URL + "/data/scene1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete status = %d", resp.StatusCode)
	}
}

func TestPostWithoutKeyGeneratesOne(t *testing.T) {
	_, backend, srv := newTestGateway(t, Config{})
	resp, err := http.Post(srv.URL+"/data/", "application/octet-stream",
		strings.NewReader("payload"))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %v, status %d", err, resp.StatusCode)
	}
	key, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(key) == 0 {
		t.Fatal("no key returned")
	}
	if v, err := backend.Get(context.Background(), string(key)); err != nil || string(v) != "payload" {
		t.Fatalf("backend missing generated key: %v", err)
	}
}

func TestCacheReadThrough(t *testing.T) {
	tier := cache.NewTier(2, 1<<20)
	_, backend, srv := newTestGateway(t, Config{Cache: tier})
	http.Post(srv.URL+"/data/k", "application/octet-stream", strings.NewReader("v")) //nolint:errcheck
	// First GET may hit cache already (write-through on POST).
	resp, _ := http.Get(srv.URL + "/data/k")
	io.ReadAll(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit (write-through)", got)
	}
	if backend.getCount() != 0 {
		t.Fatalf("backend Get called %d times despite cache", backend.getCount())
	}
	// Evict by deleting from the tier, then GET misses and fills.
	tier.Delete("k")
	resp, _ = http.Get(srv.URL + "/data/k")
	io.ReadAll(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	if backend.getCount() != 1 {
		t.Fatalf("backend Get count = %d", backend.getCount())
	}
	// And the next GET hits again.
	resp, _ = http.Get(srv.URL + "/data/k")
	io.ReadAll(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache after refill = %q", got)
	}
}

func TestDeleteInvalidatesCache(t *testing.T) {
	tier := cache.NewTier(1, 1<<20)
	_, _, srv := newTestGateway(t, Config{Cache: tier})
	http.Post(srv.URL+"/data/k", "application/octet-stream", strings.NewReader("v")) //nolint:errcheck
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/data/k", nil)
	http.DefaultClient.Do(req) //nolint:errcheck
	if _, ok := tier.Get("k"); ok {
		t.Fatal("cache still holds deleted key")
	}
}

func TestAuthRequired(t *testing.T) {
	db := auth.NewTokenDB(0)
	secret, _ := db.Register("alice")
	_, _, srv := newTestGateway(t, Config{Auth: db})

	// Unsigned request is rejected.
	resp, _ := http.Get(srv.URL + "/data/k")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsigned GET status = %d, want 403", resp.StatusCode)
	}

	// Token endpoint issues tokens.
	resp, _ = http.Get(srv.URL + "/token?user=alice")
	tokenBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	token := string(tokenBytes)
	if resp.StatusCode != http.StatusOK || token == "" {
		t.Fatalf("token endpoint status %d token %q", resp.StatusCode, token)
	}

	// Signed request passes.
	authorized, err := auth.AuthorizeURI("/data/k", token, secret)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = http.Post(srv.URL+authorized, "application/octet-stream", strings.NewReader("v"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("signed POST status = %d", resp.StatusCode)
	}

	// Token endpoint rejects unknown users.
	resp, _ = http.Get(srv.URL + "/token?user=mallory")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unknown user token status = %d", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{maxBodyBytes: 10})
	resp, _ := http.Post(srv.URL+"/data/k", "application/octet-stream",
		bytes.NewReader(make([]byte, 100)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/data/k", strings.NewReader("v"))
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestMissingKeyRejected(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	resp, _ := http.Get(srv.URL + "/data/")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET without key status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/data/", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("DELETE without key status = %d", resp.StatusCode)
	}
}

func TestGatewayStats(t *testing.T) {
	gw, _, srv := newTestGateway(t, Config{Cache: cache.NewTier(1, 1<<20)})
	http.Post(srv.URL+"/data/k", "application/octet-stream", strings.NewReader("v")) //nolint:errcheck
	resp, _ := http.Get(srv.URL + "/data/k")
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/data/absent")
	resp.Body.Close()
	st := gw.Stats()
	if st.Requests != 3 {
		t.Fatalf("Requests = %d, want 3", st.Requests)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
	if st.Errors != 1 {
		t.Fatalf("Errors = %d (the 404)", st.Errors)
	}
}

func TestTokenEndpointWithoutAuth(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	resp, _ := http.Get(srv.URL + "/token?user=x")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("token endpoint without auth status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{Cache: cache.NewTier(1, 1<<20)})
	http.Post(srv.URL+"/data/k", "application/octet-stream", strings.NewReader("v")) //nolint:errcheck
	resp, _ := http.Get(srv.URL + "/data/k")
	resp.Body.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %v / %d", err, resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	s := string(body)
	for _, want := range []string{`"requests":2`, `"cacheHits":1`, `"workers":`, `"completed":`} {
		if !strings.Contains(s, want) {
			t.Errorf("stats %s missing %q", s, want)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{Workers: 8, Cache: cache.NewTier(2, 1<<20)})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("k-%d-%d", w, i)
				resp, err := http.Post(srv.URL+"/data/"+key, "application/octet-stream",
					strings.NewReader("v"))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(srv.URL + "/data/" + key)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET: %v / %d", err, resp.StatusCode)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
}

// blockingBackend parks every Get on a channel so a test can hold the single
// worker busy while more requests pile up in its queue.
type blockingBackend struct {
	mapBackend
	release chan struct{}
	entered chan struct{}
}

func (b *blockingBackend) Get(ctx context.Context, key string) ([]byte, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.mapBackend.Get(ctx, key)
}

func TestDeadlineShedAnswers503WithRetryAfter(t *testing.T) {
	backend := &blockingBackend{
		mapBackend: mapBackend{data: map[string][]byte{"k": []byte("v")}},
		release:    make(chan struct{}),
		entered:    make(chan struct{}, 1),
	}
	gw := NewGateway(backend, Config{Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})
	srv := httptest.NewServer(gw.Handler())
	defer func() { srv.Close(); close(backend.release); gw.Close() }()

	// Occupy the single worker.
	go http.Get(srv.URL + "/data/k") //nolint:errcheck
	<-backend.entered

	// This request queues behind the parked one and its 50ms gateway deadline
	// lapses in the backlog: the pool sheds it and the gateway answers 503
	// with a Retry-After hint.
	resp, err := http.Get(srv.URL + "/data/k")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	st := gw.Stats()
	if st.Shed+st.DeadlineMisses == 0 {
		t.Fatalf("Stats = %+v, want a shed or deadline-miss recorded", st)
	}
}
