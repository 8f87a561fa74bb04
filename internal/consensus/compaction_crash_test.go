package consensus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/wal"
)

// TestCompactionMarkerDurableBeforeSegmentsDrop: a compaction appends its
// marker and the retained tail without waiting for them, and the next tick
// drops the WAL segments below the marker — the only other copy of that tail,
// of the group record and of the hard state. A power loss between the two must
// not cost an acked write.
//
// The acked write at risk is one committed while the compaction was syncing
// the store: it is above the snapshot point, so the store owes it nothing, and
// it is in the tail. The test holds the compaction there, lets one put commit
// behind it, waits for the tick to drop the segment below, and then takes from
// the WAL everything above its durable point and from the store everything
// since its last sync.
func TestCompactionMarkerDurableBeforeSegmentsDrop(t *testing.T) {
	dir := t.TempDir()
	var (
		mu            sync.Mutex
		store         = map[string]nwr.Record{}
		durableStore  = map[string]nwr.Record{}
		entered       = make(chan struct{})
		release       = make(chan struct{})
		holdFirstSync sync.Once
	)
	env := Env{
		Self: "n0",
		Call: func(context.Context, string, string, bson.D) (bson.D, error) {
			return nil, errors.New("test: single node")
		},
		Apply: func(_ context.Context, rec nwr.Record) error {
			mu.Lock()
			defer mu.Unlock()
			if old, ok := store[rec.Key]; !ok || rec.Newer(old) {
				store[rec.Key] = rec
			}
			return nil
		},
		SyncApplied: func() error {
			mu.Lock()
			for k, v := range store {
				durableStore[k] = v
			}
			mu.Unlock()
			holdFirstSync.Do(func() {
				close(entered)
				<-release
			})
			return nil
		},
		Read: func(key string) (nwr.Record, bool, error) {
			mu.Lock()
			defer mu.Unlock()
			rec, ok := store[key]
			return rec, ok, nil
		},
		Replicas: func(uint32) ([]string, error) { return []string{"n0"}, nil },
	}
	opts := Options{
		Ranges: 1, ReplicationFactor: 1,
		ElectionTimeout: 30 * time.Millisecond,
		MaxLogEntries:   8,
		WALDir:          dir, SyncEveryAppend: true,
		Seed: 7,
	}
	m, err := NewManager(opts, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// 1 MiB values: the eight entries a compaction needs fill a WAL segment,
	// so there is one below the marker to drop.
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 1<<20) }

	var stop atomic.Bool
	var acked atomic.Int32
	putterDone := make(chan error, 1)
	go func() {
		for i := 0; i < 26 && !stop.Load(); i++ {
			key := fmt.Sprintf("k%02d", i)
			deadline := time.Now().Add(5 * time.Second)
			for m.Put(ctx, key, value(i), true) != nil {
				if time.Now().After(deadline) {
					putterDone <- fmt.Errorf("put %s never accepted", key)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			acked.Add(1)
		}
		putterDone <- nil
	}()

	select {
	case <-entered:
	case <-time.After(20 * time.Second):
		t.Fatal("the log never compacted")
	}
	g := m.groupList()[0]
	// markIdx is the durable marker's index: what a reopen restores.
	groupState := func() (term, markIdx, commit, applied uint64, applying bool) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.term, g.markIdx, g.commitIndex, g.appliedIndex, g.applying
	}
	// The applier is parked in SyncApplied. One more put commits behind it and
	// waits for its apply; it will be the compaction's tail, and the last put.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, commit, applied, _ := groupState(); commit > applied {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no put committed behind the parked compaction")
		}
	}
	stop.Store(true)
	oldest := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("consensus WAL dir: %v (%v)", entries, err)
		}
		return entries[0].Name() // wal-<first LSN in hex>.seg sorts by LSN
	}
	first := oldest()
	close(release)
	if err := <-putterDone; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); oldest() == first; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the segment below the compaction marker (%s) was never dropped: the test exercises nothing", first)
		}
	}
	term, markIdx, commit, applied, applying := groupState()
	if markIdx == 0 || applying || applied != commit {
		t.Fatalf("markIdx=%d applied=%d commit=%d applying=%v: expected a compacted, quiet group", markIdx, applied, commit, applying)
	}
	keep := m.log.DurableLSN()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Power loss: the WAL keeps its durable prefix, the store what it synced.
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	log.Replay(0, func(lsn wal.LSN, rec []byte) error { //nolint:errcheck
		if lsn <= keep {
			kept = append(kept, rec)
		}
		return nil
	})
	log.Close()
	os.RemoveAll(dir)
	if log, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range kept {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	mu.Lock()
	store = durableStore
	mu.Unlock()

	m2, err := NewManager(opts, env)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	groups := m2.groupList()
	if len(groups) != 1 {
		t.Fatalf("%d groups after the crash, want the one that was compacted", len(groups))
	}
	g = groups[0]
	if term2, mark2, _, _, _ := groupState(); term2 < term || mark2 != markIdx {
		t.Fatalf("after the crash term=%d markIdx=%d, before it term=%d markIdx=%d", term2, mark2, term, markIdx)
	}
	for i := 0; i < int(acked.Load()); i++ {
		key := fmt.Sprintf("k%02d", i)
		deadline := time.Now().Add(5 * time.Second)
		for {
			rec, err := m2.Get(ctx, key)
			if err == nil && bytes.Equal(rec.Val, value(i)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("acked put %s after the crash: found=%v err=%v", key, err == nil && rec.Val != nil, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
