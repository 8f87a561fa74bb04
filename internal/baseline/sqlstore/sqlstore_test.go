package sqlstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mystore/internal/rest"
)

func TestPutGetDelete(t *testing.T) {
	s := New(2)
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "blob" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k"); !errors.Is(err, rest.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	if err := New(0).Put(context.Background(), "", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestSynchronousReplication(t *testing.T) {
	s := New(2)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if s.master.len() != 10 || s.slaves[0].len() != 10 || s.slaves[1].len() != 10 {
		t.Fatalf("row counts: master=%d slaves=%d/%d", s.master.len(), s.slaves[0].len(), s.slaves[1].len())
	}
	s.Delete(ctx, "k0") //nolint:errcheck
	if s.slaves[0].len() != 9 {
		t.Fatal("delete not replicated")
	}
}

func TestSlaveFailureFailsSyncWrite(t *testing.T) {
	s := New(1)
	s.BeforeOp = func(node int, op string) error {
		if node == 1 && op == "replicate" {
			return errors.New("slave down")
		}
		return nil
	}
	err := s.Put(context.Background(), "k", []byte("v"))
	if !errors.Is(err, ErrReplication) {
		t.Fatalf("err = %v, want ErrReplication", err)
	}
}

func TestMasterFailureFailsWritesButReadsFallBack(t *testing.T) {
	s := New(1)
	ctx := context.Background()
	s.Put(ctx, "k", []byte("v")) //nolint:errcheck
	s.BeforeOp = func(node int, op string) error {
		if node == 0 {
			return errors.New("master down")
		}
		return nil
	}
	if err := s.Put(ctx, "k2", []byte("v")); err == nil {
		t.Fatal("write with master down succeeded")
	}
	if err := s.Delete(ctx, "k"); err == nil {
		t.Fatal("delete with master down succeeded")
	}
	// Reads fall back to the slave.
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get via slave = %q, %v", v, err)
	}
}

func TestAllNodesDown(t *testing.T) {
	s := New(1)
	s.BeforeOp = func(int, string) error { return errors.New("down") }
	if _, err := s.Get(context.Background(), "k"); err == nil {
		t.Fatal("Get with all nodes down succeeded")
	}
}

func TestWritesSerialize(t *testing.T) {
	s := New(1)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Put(ctx, fmt.Sprintf("k-%d-%d", w, i), []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.master.len() != 800 {
		t.Fatalf("Len = %d, want 800", s.master.len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	s.Put(ctx, "k", []byte{1, 2}) //nolint:errcheck
	v, _ := s.Get(ctx, "k")
	v[0] = 99
	v2, _ := s.Get(ctx, "k")
	if v2[0] != 1 {
		t.Fatal("Get shares memory")
	}
}
