package docstore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/lsm"
	"mystore/internal/wal"
)

func always(bson.D) (bool, error) { return true, nil }

// TestPutIfUnsyncedSkipsOnlyTheWait: an unsynced put is logged and applied like
// any other, but returns without an fsync of its own; SyncWAL is the wait.
func TestPutIfUnsyncedSkipsOnlyTheWait(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.C("docs")
	ctx := context.Background()
	if _, err := c.PutIf(ctx, bson.D{{Key: "_id", Value: "synced"}}, always); err != nil {
		t.Fatal(err)
	}
	durable := s.WAL().DurableLSN()
	if durable != s.WAL().NextLSN()-1 {
		t.Fatalf("PutIf returned with the log durable through %d of %d", durable, s.WAL().NextLSN()-1)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("unsynced-%d", i)
		if wrote, err := c.PutIfUnsynced(ctx, bson.D{{Key: "_id", Value: id}}, always); err != nil || !wrote {
			t.Fatalf("PutIfUnsynced = %v, %v", wrote, err)
		}
		if _, ok := c.Get(id); !ok {
			t.Fatalf("%s not applied", id)
		}
	}
	if got, want := s.WAL().NextLSN()-1, durable+10; got != want {
		t.Fatalf("log holds %d records, want %d: an unsynced put is still logged", got, want)
	}
	if got := s.WAL().DurableLSN(); got != durable {
		t.Fatalf("durable point moved %d -> %d without a barrier", durable, got)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.WAL().DurableLSN(), s.WAL().NextLSN()-1; got != want {
		t.Fatalf("after SyncWAL the log is durable through %d of %d", got, want)
	}
}

// TestCheckpointNeverPassesDurableWAL: memtable flushes, background or forced
// by Compact, over appends nobody waits for must not publish a checkpoint
// above the WAL's durable point. If one did, a power loss would reopen the log
// short of it and hand those LSNs out again, to records the next replay skips.
func TestCheckpointNeverPassesDurableWAL(t *testing.T) {
	ctx := context.Background()
	doc := func(w, i int) bson.D {
		return bson.D{{Key: "_id", Value: fmt.Sprintf("w%d-%d", w, i)}, {Key: "pad", Value: make([]byte, 256)}}
	}

	t.Run("lsm flush", func(t *testing.T) {
		s, err := Open(Options{
			Dir:     t.TempDir(),
			WAL:     wal.Options{SyncEveryAppend: true},
			Storage: lsm.Tuning{MemtableBytes: 8 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var done atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1500; i++ {
					if _, err := s.C("docs").PutIfUnsynced(ctx, doc(w, i), always); err != nil {
						t.Errorf("PutIfUnsynced: %v", err)
						return
					}
				}
			}()
		}
		go func() { wg.Wait(); done.Store(true) }()
		for !done.Load() {
			// Checkpoint first: the durable point only grows, so reading it
			// second can hide a violation but never invent one.
			ckpt := s.Engine().CheckpointLSN()
			if durable := uint64(s.WAL().DurableLSN()); ckpt > durable+1 {
				t.Fatalf("checkpoint %d published with the WAL durable through %d", ckpt, durable)
			}
		}
		if s.Engine().Stats().Flushes == 0 {
			t.Fatal("no flush ran; the test exercised nothing")
		}
	})

	t.Run("compact", func(t *testing.T) {
		s, err := Open(Options{Dir: t.TempDir(), WAL: wal.Options{SyncEveryAppend: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 20; i++ {
			if _, err := s.C("docs").PutIfUnsynced(ctx, doc(0, i), always); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if ckpt, durable := s.Engine().CheckpointLSN(), uint64(s.WAL().DurableLSN()); ckpt != durable+1 {
			t.Fatalf("Compact checkpointed at %d with the WAL durable through %d", ckpt, durable)
		}
	})
}
