package consensus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/ring"
)

// testCluster is an in-package harness: managers wired together with direct
// Call closures, a partition set, and a map store per node.
type testCluster struct {
	mu    sync.Mutex
	nodes map[string]*testNode
	cut   map[string]bool // partitioned-off addresses
}

type testNode struct {
	addr      string
	m         *Manager
	mu        sync.Mutex
	store     map[string]nwr.Record
	readHook  func(key string) // called at the top of every Env.Read
	applyHook func(key string) // called at the top of every Env.Apply
}

func (tn *testNode) setApplyHook(h func(key string)) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.applyHook = h
}

func (tn *testNode) setReadHook(h func(key string)) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.readHook = h
}

func (tn *testNode) getReadHook() func(key string) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.readHook
}

func (tn *testNode) apply(rec nwr.Record) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if old, ok := tn.store[rec.Key]; !ok || rec.Newer(old) {
		tn.store[rec.Key] = rec
	}
}

func (tn *testNode) read(key string) (nwr.Record, bool) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	rec, ok := tn.store[key]
	return rec, ok
}

func (tc *testCluster) reachable(a, b string) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return !tc.cut[a] && !tc.cut[b]
}

func (tc *testCluster) partition(addrs ...string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, a := range addrs {
		tc.cut[a] = true
	}
}

func (tc *testCluster) heal() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.cut = map[string]bool{}
}

// newTestCluster starts n managers replicating every range across all n
// nodes (replication factor n). With walDirs, node i's log lives in
// walDirs[i] and syncs every append; without, each log is an unsynced one in
// a test directory.
func newTestCluster(t *testing.T, n int, walDirs []string) *testCluster {
	t.Helper()
	tc := &testCluster{nodes: map[string]*testNode{}, cut: map[string]bool{}}
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, fmt.Sprintf("n%d", i))
	}
	sort.Strings(addrs)
	for i, addr := range addrs {
		self := addr
		tn := &testNode{addr: self, store: map[string]nwr.Record{}}
		env := Env{
			Self: self,
			Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
				if !tc.reachable(self, target) {
					return nil, errors.New("test: partitioned")
				}
				tc.mu.Lock()
				peer := tc.nodes[target]
				tc.mu.Unlock()
				if peer == nil {
					return nil, errors.New("test: no such node")
				}
				return peer.m.HandleMessage(msgType, body)
			},
			Apply: func(ctx context.Context, rec nwr.Record) error {
				tn.mu.Lock()
				h := tn.applyHook
				tn.mu.Unlock()
				if h != nil {
					h(rec.Key)
				}
				tn.apply(rec)
				return nil
			},
			Read: func(key string) (nwr.Record, bool, error) {
				if h := tn.getReadHook(); h != nil {
					h(key)
				}
				rec, ok := tn.read(key)
				return rec, ok, nil
			},
			Replicas: func(lo uint32) ([]string, error) { return addrs, nil },
			StreamRange: func(ctx context.Context, target string, lo, hi uint32) bool {
				if !tc.reachable(self, target) {
					return false
				}
				tc.mu.Lock()
				peer := tc.nodes[target]
				tc.mu.Unlock()
				if peer == nil {
					return false
				}
				tn.mu.Lock()
				var recs []nwr.Record
				for k, rec := range tn.store {
					h := ring.Hash(k)
					if inRange(h, lo, hi) {
						recs = append(recs, rec)
					}
				}
				tn.mu.Unlock()
				for _, rec := range recs {
					peer.apply(rec)
				}
				return true
			},
		}
		walDir := t.TempDir()
		if walDirs != nil {
			walDir = walDirs[i]
		}
		m, err := NewManager(Options{
			Ranges:            4,
			ReplicationFactor: n,
			ElectionTimeout:   50 * time.Millisecond,
			WALDir:            walDir,
			SyncEveryAppend:   walDirs != nil,
			Seed:              int64(42 + i),
		}, env)
		if err != nil {
			t.Fatalf("NewManager(%s): %v", self, err)
		}
		tn.m = m
		tc.mu.Lock()
		tc.nodes[self] = tn
		tc.mu.Unlock()
	}
	t.Cleanup(func() {
		tc.mu.Lock()
		nodes := make([]*testNode, 0, len(tc.nodes))
		for _, tn := range tc.nodes {
			nodes = append(nodes, tn)
		}
		tc.mu.Unlock()
		for _, tn := range nodes {
			tn.m.Close()
		}
	})
	return tc
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
	}
}

// electLeader strong-puts key until some node accepts it and returns that
// node, the range's leader.
func (tc *testCluster) electLeader(t *testing.T, key string) *testNode {
	t.Helper()
	var leader *testNode
	waitFor(t, 3*time.Second, "a leader for "+key, func() bool {
		for _, tn := range tc.nodes {
			if tn.m.Put(context.Background(), key, []byte("v0"), true) == nil {
				leader = tn
				return true
			}
		}
		return false
	})
	return leader
}

func inRange(h, lo, hi uint32) bool {
	if hi == 0 {
		return h >= lo
	}
	return h >= lo && h < hi
}

// leaderFor polls until exactly one live node leads key's range.
func (tc *testCluster) leaderFor(t *testing.T, key string, timeout time.Duration) *testNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leaders []*testNode
		tc.mu.Lock()
		nodes := make([]*testNode, 0, len(tc.nodes))
		for _, tn := range tc.nodes {
			nodes = append(nodes, tn)
		}
		cut := make(map[string]bool, len(tc.cut))
		for a := range tc.cut {
			cut[a] = true
		}
		tc.mu.Unlock()
		for _, tn := range nodes {
			if cut[tn.addr] {
				continue
			}
			if tn.m.LeadsKey(key) {
				leaders = append(leaders, tn)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no single leader for %q within %v", key, timeout)
	return nil
}

func TestElectionAndStrongRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "dragon"
	// A strong op against any replica triggers lazy group creation; only the
	// eventual leader accepts it.
	ctx := context.Background()
	var leader *testNode
	deadline := time.Now().Add(3 * time.Second)
	for {
		for _, tn := range tc.nodes {
			if err := tn.m.Put(ctx, key, []byte("hoard"), true); err == nil {
				leader = tn
			}
		}
		if leader != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no node accepted a strong put within 3s")
	}
	rec, err := leader.m.Get(ctx, key)
	if err != nil {
		t.Fatalf("leader strong get: %v", err)
	}
	if string(rec.Val) != "hoard" {
		t.Fatalf("strong get: got %q want %q", rec.Val, "hoard")
	}
	// A follower must bounce strong reads with a leader hint.
	for _, tn := range tc.nodes {
		if tn == leader {
			continue
		}
		_, err := tn.m.Get(ctx, key)
		if !errors.As(err, new(*ErrNotLeader)) {
			t.Fatalf("follower strong get: got %v, want ErrNotLeader", err)
		}
		if hint, ok := ParseNotLeader(err); ok && hint != "" && hint != leader.addr {
			t.Fatalf("follower hint %q, want %q", hint, leader.addr)
		}
	}
	// The write reaches every replica's store once the commit index rides
	// the following heartbeats.
	deadline = time.Now().Add(2 * time.Second)
	for {
		applied := 0
		for _, tn := range tc.nodes {
			if rec, ok := tn.read(key); ok && string(rec.Val) == "hoard" {
				applied++
			}
		}
		if applied == len(tc.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write applied on %d/%d nodes", applied, len(tc.nodes))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStaleTermAppendRefused(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "stale"
	ctx := context.Background()
	var leader *testNode
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline) && leader == nil; {
		for _, tn := range tc.nodes {
			if tn.m.Put(ctx, key, []byte("v"), true) == nil {
				leader = tn
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader within 3s")
	}
	// Hand-craft an append from a deposed leader: term 0 is below any
	// elected term.
	var follower *testNode
	for _, tn := range tc.nodes {
		if tn != leader {
			follower = tn
			break
		}
	}
	rid := RangeOf(ring.Hash(key), 4)
	var peers bson.A
	for a := range tc.nodes {
		peers = append(peers, a)
	}
	resp, err := follower.m.HandleMessage(MsgAppend, bson.D{
		{Key: "rid", Value: int64(rid)},
		{Key: "peers", Value: peers},
		{Key: "term", Value: int64(0)},
		{Key: "leader", Value: "impostor"},
		{Key: "prevIdx", Value: int64(0)},
		{Key: "prevTerm", Value: int64(0)},
		{Key: "commit", Value: int64(0)},
	})
	if err != nil {
		t.Fatalf("stale append errored instead of replying: %v", err)
	}
	if ok, _ := resp.Get("ok"); ok == true {
		t.Fatal("stale-term append accepted; want refusal")
	}
	if got := follower.m.Stats().StaleTermRejects; got == 0 {
		t.Fatal("stale-term reject not counted")
	}
	// The refusal must carry the follower's (higher) term.
	if term, _ := resp.Get("term"); term.(int64) < 1 {
		t.Fatalf("refusal term %v, want >= 1", term)
	}
}

func TestLeaderStepsDownOnLeaseExpiryUnderPartition(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "lease"
	ctx := context.Background()
	var leader *testNode
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline) && leader == nil; {
		for _, tn := range tc.nodes {
			if tn.m.Put(ctx, key, []byte("v1"), true) == nil {
				leader = tn
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader within 3s")
	}
	// Cut the leader off from both followers.
	tc.partition(leader.addr)
	// While its lease is live it still serves strong reads: a leaseholder
	// read needs no peer.
	if rec, err := leader.m.Get(ctx, key); err != nil || string(rec.Val) != "v1" {
		t.Fatalf("leaseholder read behind a partition = %q, %v; want v1", rec.Val, err)
	}
	// Its lease must expire and it must stop claiming leadership.
	deadline := time.Now().Add(2 * time.Second)
	for leader.m.LeadsKey(key) {
		if time.Now().After(deadline) {
			t.Fatal("partitioned leader still claims leadership after 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leader.m.Stats().LeaseExpiries == 0 {
		t.Fatal("lease expiry not counted")
	}
	// Strong reads on the deposed leader must be refused, not served stale.
	if _, err := leader.m.Get(ctx, key); err == nil {
		t.Fatal("deposed leader served a strong read")
	}
	// The majority side elects a replacement.
	newLeader := tc.leaderFor(t, key, 3*time.Second)
	if newLeader.addr == leader.addr {
		t.Fatal("partitioned node re-elected itself without quorum")
	}
	if err := newLeader.m.Put(ctx, key, []byte("v2"), true); err != nil {
		t.Fatalf("majority-side put: %v", err)
	}
	// Heal: the old leader rejoins as a follower and converges.
	tc.heal()
	deadline = time.Now().Add(3 * time.Second)
	for {
		if rec, ok := leader.read(key); ok && string(rec.Val) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed ex-leader did not converge to v2")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConflictingSuffixOverwritten(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "conflict"
	ctx := context.Background()
	var leader *testNode
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline) && leader == nil; {
		for _, tn := range tc.nodes {
			if tn.m.Put(ctx, key, []byte("base"), true) == nil {
				leader = tn
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader within 3s")
	}
	tc.partition(leader.addr)
	// Propose on the cut-off leader: it appends locally but can never
	// commit; the waiter must fail (step-down or timeout), never ack.
	pctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	err := leader.m.Put(pctx, key, []byte("orphan"), true)
	cancel()
	if err == nil {
		t.Fatal("partitioned leader acked a strong write without quorum")
	}
	// Majority side moves on.
	newLeader := tc.leaderFor(t, key, 3*time.Second)
	if err := newLeader.m.Put(ctx, key, []byte("winner"), true); err != nil {
		t.Fatalf("majority-side put: %v", err)
	}
	tc.heal()
	// The old leader's conflicting suffix is truncated and replaced; all
	// stores converge on the committed value.
	deadline := time.Now().Add(3 * time.Second)
	for {
		done := true
		for _, tn := range tc.nodes {
			rec, ok := tn.read(key)
			if !ok || string(rec.Val) != "winner" {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			rec, _ := leader.read(key)
			t.Fatalf("stores did not converge on %q; ex-leader has %q", "winner", rec.Val)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWALReplayRestoresLog(t *testing.T) {
	dir := t.TempDir()
	addr := "n0"
	store := map[string]nwr.Record{}
	var storeMu sync.Mutex
	newEnv := func() Env {
		return Env{
			Self: addr,
			Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
				return nil, errors.New("test: single node")
			},
			Apply: func(ctx context.Context, rec nwr.Record) error {
				storeMu.Lock()
				defer storeMu.Unlock()
				if old, ok := store[rec.Key]; !ok || rec.Newer(old) {
					store[rec.Key] = rec
				}
				return nil
			},
			Read: func(key string) (nwr.Record, bool, error) {
				storeMu.Lock()
				defer storeMu.Unlock()
				rec, ok := store[key]
				return rec, ok, nil
			},
			Replicas: func(lo uint32) ([]string, error) { return []string{addr}, nil },
		}
	}
	opts := Options{
		Ranges:            4,
		ReplicationFactor: 1,
		ElectionTimeout:   30 * time.Millisecond,
		WALDir:            dir,
		SyncEveryAppend:   true,
		Seed:              7,
	}
	m, err := NewManager(opts, newEnv())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ctx := context.Background()
	keys := []string{"a", "b", "c", "d", "e"}
	var put int
	deadline := time.Now().Add(3 * time.Second)
	for put < len(keys) && time.Now().Before(deadline) {
		if err := m.Put(ctx, keys[put], []byte("v-"+keys[put]), true); err == nil {
			put++
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if put < len(keys) {
		t.Fatalf("only %d/%d strong puts accepted", put, len(keys))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen against an EMPTY store: only the replayed log can restore the
	// values (the snapshot floor is zero — nothing was compacted).
	storeMu.Lock()
	store = map[string]nwr.Record{}
	storeMu.Unlock()
	m2, err := NewManager(opts, newEnv())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	for _, k := range keys {
		var rec nwr.Record
		deadline := time.Now().Add(3 * time.Second)
		for {
			rec, err = m2.Get(ctx, k)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("strong get %q after replay: %v", k, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if string(rec.Val) != "v-"+k {
			t.Fatalf("replayed %q = %q, want %q", k, rec.Val, "v-"+k)
		}
	}
}

// TestFollowerCommitCappedAtVerifiedPrefix pins the Raft "index of last new
// entry" rule: a follower holding entries beyond what an append RPC verified
// must not commit them just because leaderCommit is high — those entries may
// be a divergent suffix the leader never checked.
func TestFollowerCommitCappedAtVerifiedPrefix(t *testing.T) {
	var mu sync.Mutex
	applied := map[string]bool{}
	env := Env{
		Self: "n0",
		Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
			return nil, errors.New("test: passive follower")
		},
		Apply: func(ctx context.Context, rec nwr.Record) error {
			mu.Lock()
			applied[rec.Key] = true
			mu.Unlock()
			return nil
		},
		Read:     func(key string) (nwr.Record, bool, error) { return nwr.Record{}, false, nil },
		Replicas: func(lo uint32) ([]string, error) { return []string{"n0", "pa", "pb"}, nil },
	}
	m, err := NewManager(Options{
		Ranges:            4,
		ReplicationFactor: 3,
		// Long timeout: the node stays a passive follower for the whole test.
		ElectionTimeout: 10 * time.Second,
		WALDir:          t.TempDir(),
		Seed:            1,
	}, env)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	peers := bson.A{"n0", "pa", "pb"}
	entry := func(idx, term int64, key string) bson.D {
		e := Entry{
			Index: uint64(idx),
			Term:  uint64(term),
			Rec:   nwr.Record{Key: key, Val: []byte("v"), IsData: true, Ver: idx, Origin: "pa", Strong: true},
		}
		return e.toDoc()
	}
	// A term-2 leader replicates entries 1..3; none are committed yet.
	resp, err := m.HandleMessage(MsgAppend, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: peers},
		{Key: "term", Value: int64(2)},
		{Key: "leader", Value: "pa"},
		{Key: "prevIdx", Value: int64(0)},
		{Key: "prevTerm", Value: int64(0)},
		{Key: "entries", Value: bson.A{entry(1, 2, "cap-a"), entry(2, 2, "cap-b"), entry(3, 2, "cap-c")}},
		{Key: "commit", Value: int64(0)},
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ok, _ := resp.Get("ok"); ok != true {
		t.Fatalf("append refused: %v", resp)
	}
	// A term-3 leader (which may have replaced entries 2..3 on its own log)
	// heartbeats with prevIdx 1 and commit 3. Only index 1 was verified by
	// this RPC; the follower must not commit its unverified 2..3 suffix.
	resp, err = m.HandleMessage(MsgAppend, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: peers},
		{Key: "term", Value: int64(3)},
		{Key: "leader", Value: "pb"},
		{Key: "prevIdx", Value: int64(1)},
		{Key: "prevTerm", Value: int64(2)},
		{Key: "entries", Value: bson.A{}},
		{Key: "commit", Value: int64(3)},
	})
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if ok, _ := resp.Get("ok"); ok != true {
		t.Fatalf("heartbeat refused: %v", resp)
	}
	// The apply trails the reply: wait for the applier to reach the commit
	// index, which the heartbeat must have left at the verified prefix.
	g, err := m.groupFor(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the applier to reach the commit index", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.appliedIndex == g.commitIndex && !g.applying
	})
	g.mu.Lock()
	commitIndex := g.commitIndex
	g.mu.Unlock()
	if commitIndex != 1 {
		t.Fatalf("commit index %d after a heartbeat that verified only index 1", commitIndex)
	}
	mu.Lock()
	defer mu.Unlock()
	if !applied["cap-a"] {
		t.Fatal("verified entry 1 not applied after commit advance")
	}
	if applied["cap-b"] || applied["cap-c"] {
		t.Fatal("unverified suffix committed: heartbeat covered only index 1")
	}
}

// TestDivergentPeerSetRejected pins the split-quorum guard: an incoming RPC
// whose replica set diverges from the group's pinned set fails loudly.
func TestDivergentPeerSetRejected(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.mu.Lock()
	n0 := tc.nodes["n0"]
	tc.mu.Unlock()
	// Create the group on n0 with the pinned set {n0, n1, n2}.
	if _, err := n0.m.HandleMessage(MsgVote, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: bson.A{"n0", "n1", "n2"}},
		{Key: "term", Value: int64(1)},
		{Key: "from", Value: "n1"},
		{Key: "lastIdx", Value: int64(0)},
		{Key: "lastTerm", Value: int64(0)},
	}); err != nil {
		t.Fatalf("vote (group creation): %v", err)
	}
	// A divergent membership view must be rejected, not silently adopted.
	_, err := n0.m.HandleMessage(MsgAppend, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: bson.A{"n0", "n1", "rogue"}},
		{Key: "term", Value: int64(1)},
		{Key: "leader", Value: "n1"},
		{Key: "prevIdx", Value: int64(0)},
		{Key: "prevTerm", Value: int64(0)},
		{Key: "commit", Value: int64(0)},
	})
	if !errors.Is(err, ErrPeerMismatch) {
		t.Fatalf("divergent peer set: got %v, want ErrPeerMismatch", err)
	}
	// The same set in a different order is the same membership view.
	if _, err := n0.m.HandleMessage(MsgAppend, bson.D{
		{Key: "rid", Value: int64(0)},
		{Key: "peers", Value: bson.A{"n2", "n0", "n1"}},
		{Key: "term", Value: int64(1)},
		{Key: "leader", Value: "n1"},
		{Key: "prevIdx", Value: int64(0)},
		{Key: "prevTerm", Value: int64(0)},
		{Key: "commit", Value: int64(0)},
	}); errors.Is(err, ErrPeerMismatch) {
		t.Fatal("permuted peer set rejected; order must not matter")
	}
}

// TestStrongReadRefusedWhenLeaseExpiresMidRead pins the lease re-check after
// the local read: a leader that stalls past its lease mid-read must refuse
// the result instead of returning a possibly-stale value.
func TestStrongReadRefusedWhenLeaseExpiresMidRead(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "mid-read"
	ctx := context.Background()
	var leader *testNode
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline) && leader == nil; {
		for _, tn := range tc.nodes {
			if tn.m.Put(ctx, key, []byte("v"), true) == nil {
				leader = tn
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader within 3s")
	}
	if _, err := leader.m.Get(ctx, key); err != nil {
		t.Fatalf("healthy strong get: %v", err)
	}
	// Stall the next read past the lease: cut the leader off (so append acks
	// cannot extend the lease) and sleep well beyond the lease.
	var once sync.Once
	leader.setReadHook(func(string) {
		once.Do(func() {
			tc.partition(leader.addr)
			time.Sleep(300 * time.Millisecond) // the lease is 50ms here
		})
	})
	if _, err := leader.m.Get(ctx, key); err == nil {
		t.Fatal("strong read served a value after the lease expired mid-read")
	}
}

func TestRangeMapping(t *testing.T) {
	for _, ranges := range []int{1, 2, 8, 64} {
		for _, h := range []uint32{0, 1, 1 << 30, 1<<31 + 12345, ^uint32(0)} {
			rid := RangeOf(h, ranges)
			if rid < 0 || rid >= ranges {
				t.Fatalf("RangeOf(%d,%d)=%d out of range", h, ranges, rid)
			}
			lo, hi := RangeBounds(rid, ranges)
			if !inRange(h, lo, hi) {
				t.Fatalf("hash %d not in bounds [%d,%d) of its range %d/%d", h, lo, hi, rid, ranges)
			}
		}
	}
}

// TestRefusedVoteKeepsElectionDeadline: a vote request at a higher term from a
// candidate whose log is behind ours is refused, its term adopted — and our
// own election deadline left where it was. Only a vote we grant may push the
// deadline back: otherwise a candidate that can never win keeps resetting the
// one replica that can, and the range stays leaderless for as long as the
// stale candidate's timeouts happen to fire first (seen as 13-election-
// timeout failovers in TestStrongFailoverAcrossLeaderKill).
func TestRefusedVoteKeepsElectionDeadline(t *testing.T) {
	peers := []string{"a", "b", "c"}
	m, err := NewManager(Options{
		Ranges:            1,
		ReplicationFactor: 3,
		ElectionTimeout:   time.Hour, // no timer fires during the test
		WALDir:            t.TempDir(),
		Seed:              1,
	}, Env{
		Self:     "a",
		Call:     func(context.Context, string, string, bson.D) (bson.D, error) { return nil, errors.New("test: down") },
		Replicas: func(uint32) ([]string, error) { return peers, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g, err := m.groupFor(0, peers)
	if err != nil {
		t.Fatal(err)
	}
	// A follower holding one entry of term 1 whose leader fell silent long ago.
	g.mu.Lock()
	g.term = 1
	g.log = append(g.log, Entry{Index: 1, Term: 1, Noop: true})
	g.leader = "c"
	g.lastHeard = time.Time{}
	before := g.electionDeadline
	g.mu.Unlock()

	vote := func(from string, term, lastIdx, lastTerm int64) bool {
		t.Helper()
		resp, err := m.HandleMessage(MsgVote, bson.D{
			{Key: "rid", Value: int64(0)},
			{Key: "peers", Value: peersDoc(peers)},
			{Key: "term", Value: term},
			{Key: "from", Value: from},
			{Key: "lastIdx", Value: lastIdx},
			{Key: "lastTerm", Value: lastTerm},
		})
		if err != nil {
			t.Fatal(err)
		}
		granted, _ := resp.Get("granted")
		return granted == true
	}
	state := func() (uint64, time.Time) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.term, g.electionDeadline
	}

	if vote("b", 5, 0, 0) {
		t.Fatal("granted a vote to a candidate with an empty log")
	}
	if term, deadline := state(); term != 5 || !deadline.Equal(before) {
		t.Fatalf("after a refused vote: term %d (want 5), election deadline moved by %v (want 0)", term, deadline.Sub(before))
	}
	if !vote("b", 6, 1, 1) {
		t.Fatal("refused a vote to an up-to-date candidate")
	}
	if _, deadline := state(); deadline.Equal(before) {
		t.Fatal("a granted vote did not re-arm the election deadline")
	}
}
