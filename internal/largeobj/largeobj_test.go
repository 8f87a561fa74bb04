package largeobj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// memStore is an in-memory Store with optional per-op failure hooks.
type memStore struct {
	mu     sync.Mutex
	data   map[string][]byte
	failOn func(op, key string) error
}

func newMemStore() *memStore { return &memStore{data: map[string][]byte{}} }

func (m *memStore) Put(_ context.Context, key string, val []byte) error {
	if m.failOn != nil {
		if err := m.failOn("put", key); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[key] = append([]byte(nil), val...)
	return nil
}

func (m *memStore) Get(_ context.Context, key string) ([]byte, error) {
	if m.failOn != nil {
		if err := m.failOn("get", key); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("not found: %q", key)
	}
	return append([]byte(nil), v...), nil
}

func (m *memStore) Delete(_ context.Context, key string) error {
	if m.failOn != nil {
		if err := m.failOn("delete", key); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, key)
	return nil
}

func (m *memStore) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

func randomPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b) //nolint:errcheck
	return b
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(3<<20+123, 1) // 3 MiB + change: uneven tail chunk
	m, err := Upload(ctx, s, "video-1", bytes.NewReader(payload), Config{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if m.Chunks != 4 || m.Size != int64(len(payload)) {
		t.Fatalf("manifest = %+v", m)
	}
	// 4 chunks + 1 manifest.
	if s.len() != 5 {
		t.Fatalf("stored keys = %d, want 5", s.len())
	}
	got, err := Download(ctx, s, "video-1", Config{})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip corrupted payload")
	}
}

func TestUploadEmptyObject(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	m, err := Upload(ctx, s, "empty", bytes.NewReader(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks != 0 || m.Size != 0 {
		t.Fatalf("manifest = %+v", m)
	}
	got, err := Download(ctx, s, "empty", Config{})
	if err != nil || len(got) != 0 {
		t.Fatalf("Download empty = %d bytes, %v", len(got), err)
	}
}

func TestExactChunkBoundary(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(2<<20, 2) // exactly two chunks
	m, err := Upload(ctx, s, "k", bytes.NewReader(payload), Config{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks != 2 {
		t.Fatalf("chunks = %d, want 2", m.Chunks)
	}
	got, err := Download(ctx, s, "k", Config{})
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestStat(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(100, 3)
	if _, err := Upload(ctx, s, "k", bytes.NewReader(payload), Config{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	m, err := Stat(ctx, s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 100 || m.Chunks != 2 || m.ChunkSize != 64 || len(m.MD5) != 32 {
		t.Fatalf("Stat = %+v", m)
	}
}

func TestStatRejectsPlainValue(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	s.Put(ctx, "plain", []byte("just bytes")) //nolint:errcheck
	if _, err := Stat(ctx, s, "plain"); !errors.Is(err, ErrNotLargeObject) {
		t.Fatalf("err = %v, want ErrNotLargeObject", err)
	}
}

func TestDownloadDetectsMissingChunk(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(300, 4)
	Upload(ctx, s, "k", bytes.NewReader(payload), Config{ChunkSize: 100}) //nolint:errcheck
	s.Delete(ctx, chunkKey("k", 1))                                       //nolint:errcheck
	if _, err := Download(ctx, s, "k", Config{}); err == nil {
		t.Fatal("Download succeeded with a missing chunk")
	}
}

func TestDownloadDetectsCorruptChunk(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(300, 5)
	Upload(ctx, s, "k", bytes.NewReader(payload), Config{ChunkSize: 100}) //nolint:errcheck
	// Flip a byte in chunk 2 (same length, wrong content).
	s.mu.Lock()
	s.data[chunkKey("k", 2)][0] ^= 0xFF
	s.mu.Unlock()
	if _, err := Download(ctx, s, "k", Config{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestUploadChunkFailureSurfaces(t *testing.T) {
	s := newMemStore()
	boom := errors.New("replica down")
	s.failOn = func(op, key string) error {
		if op == "put" && strings.Contains(key, "\x00c\x00000002") {
			return boom
		}
		return nil
	}
	_, err := Upload(context.Background(), s, "k", bytes.NewReader(randomPayload(500, 6)), Config{ChunkSize: 100})
	if err == nil {
		t.Fatal("Upload succeeded despite chunk failure")
	}
	// The manifest must NOT exist: readers never see a partial object.
	if _, err := Stat(context.Background(), s, "k"); err == nil {
		t.Fatal("manifest written despite failed chunks")
	}
}

func TestRemove(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	Upload(ctx, s, "k", bytes.NewReader(randomPayload(500, 7)), Config{ChunkSize: 100}) //nolint:errcheck
	if err := Remove(ctx, s, "k", Config{}); err != nil {
		t.Fatal(err)
	}
	if s.len() != 0 {
		t.Fatalf("%d keys remain after Remove", s.len())
	}
	if err := Remove(ctx, s, "k", Config{}); err == nil {
		t.Fatal("Remove of absent object succeeded")
	}
}

func TestDownloadToWriter(t *testing.T) {
	s := newMemStore()
	ctx := context.Background()
	payload := randomPayload(1<<20, 8)
	Upload(ctx, s, "k", bytes.NewReader(payload), Config{ChunkSize: 128 << 10}) //nolint:errcheck
	var buf bytes.Buffer
	m, err := DownloadTo(ctx, s, "k", &buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != int64(len(payload)) || !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("streamed download mismatch")
	}
}

func TestChunkKeysOutsideUserKeyspace(t *testing.T) {
	k := chunkKey("user-key", 0)
	if !strings.Contains(k, "\x00") {
		t.Fatal("chunk keys must contain NUL separators")
	}
}
