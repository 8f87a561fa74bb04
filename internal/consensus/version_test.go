package consensus

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
)

// anHourSlow is a clock an hour behind the one the earlier writes were
// stamped with.
func anHourSlow() time.Time { return time.Now().Add(-time.Hour) }

// TestReplayedMarkerKeepsVersionsAboveTheClock: a strong write's version must
// not fall below one already applied. Restarted from a compaction marker with
// nothing after it, the log holds no entry to learn the last version from, so
// the marker carries it: a leader whose clock runs behind the last writer's
// still stamps above it, or the store's last-write-wins would drop a write
// the put acked.
func TestReplayedMarkerKeepsVersionsAboveTheClock(t *testing.T) {
	store := newLWWStore()
	env := Env{
		Self: "n0",
		Call: func(context.Context, string, string, bson.D) (bson.D, error) {
			return nil, errors.New("test: single node")
		},
		Apply:    store.apply,
		Read:     store.read,
		Replicas: func(uint32) ([]string, error) { return []string{"n0"}, nil },
	}
	opts := Options{
		Ranges: 1, ReplicationFactor: 1,
		ElectionTimeout: 30 * time.Millisecond,
		maxLogEntries:   8,
		WALDir:          t.TempDir(), SyncEveryAppend: true,
		Seed: 5,
	}
	m, err := NewManager(opts, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	put := func(m *Manager, key, val string) {
		t.Helper()
		waitFor(t, 3*time.Second, "a strong put of "+key+" to be accepted", func() bool {
			return m.Put(ctx, key, []byte(val), true) == nil
		})
	}
	g, err := m.groupFor(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Put until a marker covers the whole log, so replay finds no entry above it.
	for i := 0; ; i++ {
		put(m, fmt.Sprintf("k%d", i%4), fmt.Sprintf("old%d", i))
		waitFor(t, 2*time.Second, "the applier to go quiet", func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return !g.applying
		})
		g.mu.Lock()
		covered := i >= 39 && g.markIdx == g.lastIndex()
		g.mu.Unlock()
		if covered {
			break
		}
		if i == 400 {
			t.Fatal("no compaction marker ever covered the whole log")
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Now = anHourSlow
	m2, err := NewManager(opts, env)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	put(m2, "k0", "new")
	if rec, _, _ := store.read("k0"); string(rec.Val) != "new" {
		t.Fatalf("acked put lost: got %q", rec.Val)
	}
}

// TestInstalledSnapshotKeepsVersionsAboveTheClock: the records a snapshot
// streams in carry the old leader's versions. A replica that installs the
// snapshot and then leads on a clock behind that leader's must still stamp
// its writes above them.
func TestInstalledSnapshotKeepsVersionsAboveTheClock(t *testing.T) {
	peers := []string{"n0", "pa", "pb"}
	store := newLWWStore()
	m, err := NewManager(Options{
		Ranges: 1, ReplicationFactor: 3,
		ElectionTimeout: 30 * time.Millisecond,
		WALDir:          t.TempDir(),
		Seed:            9,
		Now:             anHourSlow,
	}, Env{
		Self: "n0",
		// pa and pb answer as live followers would: every vote granted, every
		// append held.
		Call: func(_ context.Context, _, msgType string, body bson.D) (bson.D, error) {
			term := int64Or(body, "term", 0)
			if msgType == MsgVote {
				return bson.D{{Key: "term", Value: term}, {Key: "granted", Value: true}}, nil
			}
			return bson.D{{Key: "term", Value: term}, {Key: "ok", Value: true}}, nil
		},
		Apply:    store.apply,
		Read:     store.read,
		Replicas: func(uint32) ([]string, error) { return peers, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The old leader pa streams k0, stamped on its own clock, and installs
	// the snapshot marker over it.
	old := nwr.Record{Key: "k0", Val: []byte("old"), IsData: true, Ver: time.Now().UnixNano(), Origin: "pa", Strong: true}
	store.apply(context.Background(), old) //nolint:errcheck
	resp, err := m.HandleMessage(MsgSnapshot, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: peersDoc(peers)},
		{Key: "term", Value: int64(1)},
		{Key: "leader", Value: "pa"},
		{Key: "snapIdx", Value: int64(10)},
		{Key: "snapTerm", Value: int64(1)},
		{Key: "maxVer", Value: old.Ver},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := resp.Get("ok"); ok != true {
		t.Fatalf("snapshot refused: %v", resp)
	}

	// pa falls silent; n0 times out, wins, and takes the next write.
	waitFor(t, 3*time.Second, "n0 to accept a strong put", func() bool {
		return m.Put(context.Background(), "k0", []byte("new"), true) == nil
	})
	if rec, _, _ := store.read("k0"); string(rec.Val) != "new" {
		t.Fatalf("acked put lost: got %q", rec.Val)
	}
}
