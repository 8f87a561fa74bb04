package fsstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mystore/internal/rest"
)

func TestPutGetDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Put(ctx, "scene1", []byte("xml")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "scene1")
	if err != nil || string(v) != "xml" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Delete(ctx, "scene1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "scene1"); !errors.Is(err, rest.ErrNotFound) {
		t.Fatalf("Get after delete err = %v", err)
	}
	if err := s.Delete(ctx, "scene1"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Put(context.Background(), "", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestOverwrite(t *testing.T) {
	s, _ := Open(t.TempDir())
	ctx := context.Background()
	s.Put(ctx, "k", []byte("v1")) //nolint:errcheck
	s.Put(ctx, "k", []byte("v2")) //nolint:errcheck
	v, _ := s.Get(ctx, "k")
	if string(v) != "v2" {
		t.Fatalf("Get = %q", v)
	}
	if len(s.index) != 1 {
		t.Fatalf("Len = %d", len(s.index))
	}
}

func TestIndexRebuiltOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, fmt.Sprintf("key/%d with spaces", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.index) != 20 {
		t.Fatalf("reopened Len = %d, want 20", len(s2.index))
	}
	if v, err := s2.Get(ctx, "key/7 with spaces"); err != nil || string(v) != "v" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
}

func TestConcurrent(t *testing.T) {
	s, _ := Open(t.TempDir())
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d-%d", w, i)
				if err := s.Put(ctx, key, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := s.Get(ctx, key); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(s.index) != 400 {
		t.Fatalf("Len = %d, want 400", len(s.index))
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	s, _ := Open(t.TempDir())
	ctx := context.Background()
	key := string([]byte{0, 1, 2, 255})
	val := make([]byte, 4096)
	for i := range val {
		val[i] = byte(i)
	}
	if err := s.Put(ctx, key, val); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, key)
	if err != nil || len(got) != len(val) {
		t.Fatalf("binary round trip failed: %v", err)
	}
}
