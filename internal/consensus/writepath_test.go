package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/ring"
)

// walDirs returns n fresh consensus WAL directories.
func walDirs(tb testing.TB, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = tb.TempDir()
	}
	return dirs
}

// keysInRangeOf returns n keys (other than like) that hash into like's range.
func keysInRangeOf(like string, n int) []string {
	rid := RangeOf(ring.Hash(like), 4)
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("%s-%d", like, i); RangeOf(ring.Hash(k), 4) == rid {
			keys = append(keys, k)
		}
	}
	return keys
}

func (tc *testCluster) followers(leader *testNode) []*testNode {
	var out []*testNode
	for _, tn := range tc.nodes {
		if tn != leader {
			out = append(out, tn)
		}
	}
	return out
}

// TestCommitByFollowersBeforeLeaderSync: the entry goes out to the followers
// before the leader's own WAL wait returns, so two followers can form the
// commit quorum while the leader's durableIndex is still behind. That is legal
// Raft — the entry is durable on a majority — and the leader must commit,
// apply and ack it without counting itself.
func TestCommitByFollowersBeforeLeaderSync(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "ahead"
	leader := tc.electLeader(t, key)
	g, err := leader.m.groupForKey(key)
	if err != nil {
		t.Fatal(err)
	}

	// propose, stopped short of finishAppend: the leader's own log wait is
	// still outstanding while the entry replicates.
	g.mu.Lock()
	lsn, err := g.appendLeaderEntryLocked(Entry{Rec: nwr.Record{Key: key, Val: []byte("v1"), IsData: true}})
	if err != nil {
		t.Fatal(err)
	}
	idx, term := g.lastIndex(), g.term
	w := &waiter{term: term, ch: make(chan error, 1)}
	g.waiters[idx] = w
	durableBefore := g.durableIndex
	g.mu.Unlock()
	if durableBefore >= idx {
		t.Fatalf("durableIndex %d already covers the new entry %d", durableBefore, idx)
	}
	g.broadcast()

	select {
	case err := <-w.ch:
		if err != nil {
			t.Fatalf("proposal failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("entry held by both followers did not commit without the leader's own vote")
	}
	g.mu.Lock()
	commit, applied, durable := g.commitIndex, g.appliedIndex, g.durableIndex
	g.mu.Unlock()
	if commit < idx || applied < idx {
		t.Fatalf("after the ack: commit %d, applied %d, want both >= %d", commit, applied, idx)
	}
	if durable >= idx {
		t.Fatalf("durableIndex %d counts the leader before its own log wait finished", durable)
	}
	if rec, ok := leader.read(key); !ok || string(rec.Val) != "v1" {
		t.Fatalf("leader store after the ack: %q, %v", rec.Val, ok)
	}

	g.finishAppend(lsn, idx, term)
	g.mu.Lock()
	durable = g.durableIndex
	g.mu.Unlock()
	if durable != idx {
		t.Fatalf("durableIndex %d after the leader's own wait, want %d", durable, idx)
	}
}

// TestProposalAppendsWhileApplyInFlight: the applier does not hold the group
// lock across the store call, so while one entry's apply is stuck in the store
// the next proposal to the same range still appends, replicates and commits.
func TestProposalAppendsWhileApplyInFlight(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	keys := keysInRangeOf("inflight", 2)
	leader := tc.electLeader(t, keys[0])
	g, err := leader.m.groupForKey(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leader.setApplyHook(func(key string) {
		if key == keys[0] {
			once.Do(func() { close(entered) })
			<-release
		}
	})
	defer leader.setApplyHook(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	go func() { errs <- leader.m.Put(ctx, keys[0], []byte("slow"), true) }()
	<-entered
	g.mu.Lock()
	stuck := g.appliedIndex
	g.mu.Unlock()
	go func() { errs <- leader.m.Put(ctx, keys[1], []byte("next"), true) }()
	waitFor(t, 2*time.Second, "the second entry to commit behind the stuck apply", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.commitIndex >= stuck+2 && g.appliedIndex == stuck
	})
	if lag := leader.m.ApplyLag(g.rid); lag < 2 {
		t.Fatalf("ApplyLag = %d with two committed entries unapplied", lag)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if lag := leader.m.ApplyLag(g.rid); lag != 0 {
		t.Fatalf("ApplyLag = %d after both puts were acked", lag)
	}
}

// TestConcurrentProposalsOneRange hammers one range from several proposers
// (run under -race): every acked put is in the acking leader's store when the
// ack returns, and the last one is applied on every replica.
func TestConcurrentProposalsOneRange(t *testing.T) {
	tc := newTestCluster(t, 3, walDirs(t, 3))
	const proposers, each = 4, 25
	keys := keysInRangeOf("hammer", proposers)
	tc.electLeader(t, keys[0])
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// put retries across nodes (leadership may move on a busy host) and
	// returns the node that acked.
	put := func(key, val string) *testNode {
		for ctx.Err() == nil {
			for _, tn := range tc.nodes {
				if tn.m.Put(ctx, key, []byte(val), true) == nil {
					return tn
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				acker := put(keys[p], fmt.Sprint(i))
				if acker == nil {
					t.Errorf("put %s #%d never acked", keys[p], i)
					return
				}
				// The leader's waiter resolves after its local apply.
				if rec, _ := acker.read(keys[p]); string(rec.Val) != fmt.Sprint(i) {
					t.Errorf("%s holds %q for %s right after it acked put #%d", acker.addr, rec.Val, keys[p], i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, tn := range tc.nodes {
		for _, k := range keys {
			waitFor(t, 3*time.Second, "replica "+tn.addr+" to apply the last write of "+k, func() bool {
				rec, _ := tn.read(k)
				return string(rec.Val) == fmt.Sprint(each)
			})
		}
	}
}

// TestFailedLogWriteIsNotDurable: a consensus WAL that refuses the write (or
// its fsync) must not be counted. A follower in that state answers the append
// with an error and the leader's match index for it stays put; a leader in
// that state fails the proposal; with no durable majority left nothing is
// acked and nothing is applied.
func TestFailedLogWriteIsNotDurable(t *testing.T) {
	tc := newTestCluster(t, 3, walDirs(t, 3))
	key := "durable"
	leader := tc.electLeader(t, key)
	g, err := leader.m.groupForKey(key)
	if err != nil {
		t.Fatal(err)
	}
	followers := tc.followers(leader)
	broken, healthy := followers[0], followers[1]
	matchOf := func(tn *testNode) uint64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.matchIndex[tn.addr]
	}
	waitFor(t, 2*time.Second, "both followers to hold the first write", func() bool {
		return matchOf(broken) == matchOf(healthy) && matchOf(healthy) > 0
	})

	// One follower loses its log: the other still forms the majority.
	broken.m.log.Abandon()
	before := matchOf(broken)
	ctx := context.Background()
	if err := leader.m.Put(ctx, key, []byte("v1"), true); err != nil {
		t.Fatalf("put with one follower's log gone: %v", err)
	}
	if err := leader.m.Put(ctx, key, []byte("v2"), true); err != nil {
		t.Fatalf("second put (the leader has retried the broken follower by now): %v", err)
	}
	if got := matchOf(broken); got != before {
		t.Fatalf("match index of the follower with no log moved %d -> %d: it acked entries it could not write", before, got)
	}
	if rec, _ := broken.read(key); string(rec.Val) == "v1" || string(rec.Val) == "v2" {
		t.Fatalf("follower with no log applied %q", rec.Val)
	}

	// The second follower goes too: the leader alone is not a majority.
	healthy.m.log.Abandon()
	pctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
	err = leader.m.Put(pctx, key, []byte("v3"), true)
	cancel()
	// ErrNoQuorum when the deadline fires first, ErrNotLeader when the lease
	// (no acks any more) does.
	if !errors.Is(err, ErrNoQuorum) && !IsNotLeader(err) {
		t.Fatalf("put with both followers' logs gone: %v, want ErrNoQuorum or ErrNotLeader", err)
	}
	for _, tn := range tc.nodes {
		if rec, _ := tn.read(key); string(rec.Val) == "v3" {
			t.Fatalf("%s applied a write no durable majority held", tn.addr)
		}
	}
}

// TestLeaderWithoutLogFailsProposal: a leader whose own WAL refuses the entry
// does not append it and fails the proposal with ErrNoQuorum.
func TestLeaderWithoutLogFailsProposal(t *testing.T) {
	tc := newTestCluster(t, 3, walDirs(t, 3))
	key := "leaderlog"
	leader := tc.electLeader(t, key)
	g, err := leader.m.groupForKey(key)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	last := g.lastIndex()
	g.mu.Unlock()
	leader.m.log.Abandon()
	err = g.propose(context.Background(), nwr.Record{Key: key, Val: []byte("lost"), IsData: true})
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("propose on a leader with no log: %v, want ErrNoQuorum", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastIndex() != last {
		t.Fatalf("log grew %d -> %d by an entry the WAL refused", last, g.lastIndex())
	}
}

// TestCompactionSyncsStoreBeforeMarker: applies do not wait for the store's
// own fsync, so the compaction marker — a promise that the store holds
// everything at or below it — may only be written after SyncApplied, and not
// at all when SyncApplied fails. markIdx is the marker's index, what a reopen
// restores; the in-memory log is trimmed either way.
func TestCompactionSyncsStoreBeforeMarker(t *testing.T) {
	var (
		mu            sync.Mutex
		syncs         int
		syncedThrough uint64 // appliedIndex at the last successful sync
		syncErr       error
		g             *group
	)
	m, err := NewManager(Options{
		Ranges:            1,
		ReplicationFactor: 1,
		ElectionTimeout:   20 * time.Millisecond,
		MaxLogEntries:     16,
		WALDir:            t.TempDir(),
		SyncEveryAppend:   true,
		Seed:              3,
	}, Env{
		Self: "solo",
		Call: func(context.Context, string, string, bson.D) (bson.D, error) {
			return nil, errors.New("test: single node")
		},
		Replicas: func(uint32) ([]string, error) { return []string{"solo"}, nil },
		Read:     func(string) (nwr.Record, bool, error) { return nwr.Record{}, false, nil },
		Apply:    func(context.Context, nwr.Record) error { return nil },
		// Called by the applier with the group lock released: every entry
		// through appliedIndex has been applied when it runs.
		SyncApplied: func() error {
			g.mu.Lock()
			applied := g.appliedIndex
			g.mu.Unlock()
			mu.Lock()
			defer mu.Unlock()
			syncs++
			if syncErr == nil {
				syncedThrough = applied
			}
			return syncErr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	put := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			waitFor(t, 3*time.Second, "a strong put to be accepted", func() bool {
				return m.Put(ctx, fmt.Sprintf("k%d", i), []byte("v"), true) == nil
			})
		}
	}
	if g, err = m.groupFor(0, nil); err != nil {
		t.Fatal(err)
	}
	markIdx := func() uint64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.markIdx
	}

	// While the store cannot be synced no marker is written.
	mu.Lock()
	syncErr = errors.New("test: store fsync failed")
	mu.Unlock()
	put(40)
	if mark := markIdx(); mark != 0 {
		t.Fatalf("compacted to %d although the store never became durable", mark)
	}
	mu.Lock()
	if syncs == 0 {
		t.Fatal("compaction never asked the store to sync")
	}
	syncErr = nil
	mu.Unlock()

	// Once it can, every entry the marker covers was applied before the sync
	// that preceded it.
	put(40)
	waitFor(t, 2*time.Second, "a compaction", func() bool { return markIdx() > 0 })
	mark := markIdx()
	mu.Lock()
	defer mu.Unlock()
	if mark > syncedThrough {
		t.Fatalf("marker covers entries through %d, the store was synced through %d", mark, syncedThrough)
	}
}
