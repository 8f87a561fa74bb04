package nwr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/resilience"
)

// suspectPeer makes v hold addr suspect the way failed calls do: it reports
// failures until the peer is no longer up.
func suspectPeer(v *resilience.Peers, addr string) {
	for i := 0; i < 10 && v.IsUp(addr); i++ {
		v.Report(addr, false)
	}
}

// TestOpenBreakerSkipsDeadPeerOnWritePath: with a replica the view holds
// suspect, a quorum write must complete fast via the hint path instead of
// burning CallTimeout (or retries) against the dead peer.
func TestOpenBreakerSkipsDeadPeerOnWritePath(t *testing.T) {
	now := time.Unix(5000, 0)
	cfg := defaultCfg()
	cfg.Now = func() time.Time { return now }
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()

	key := "breaker-key"
	owners, _ := tc.ring.Successors(key, 3)
	// Coordinate from a non-owner so every replica write goes remote; kill
	// the last replica and let the coordinator's view learn it, as failed
	// calls would.
	co := tc.nonOwnerCoord(t, key)
	tc.eps[tc.index(owners[2])].Close()
	suspectPeer(co.Peers(), owners[2])

	start := time.Now()
	if err := co.Put(ctx, key, []byte("v")); err != nil {
		t.Fatalf("put with a suspect replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("put took %v; a suspect peer should fast-fail", elapsed)
	}
	// Put returns at the W quorum, which the two healthy replicas can reach
	// before the dead replica's goroutine asks the view — wait for it.
	waitFor(t, "a fast failure on the write path", func() bool {
		return co.Peers().Stats().FastFailures > 0
	})
	if got := co.Stats().RetriedReplicaWrites; got != 0 {
		t.Fatalf("RetriedReplicaWrites = %d, want 0 (peer suspect)", got)
	}
}

// TestBreakerFedByCallOutcomes: repeated transport failures against a dead
// peer make it suspect without any gossip involvement.
func TestBreakerFedByCallOutcomes(t *testing.T) {
	now := time.Unix(5000, 0)
	cfg := defaultCfg()
	cfg.Now = func() time.Time { return now }
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()

	tc.eps[2].Close()
	for i := 0; i < 10; i++ {
		tc.coords[0].Put(ctx, fmt.Sprintf("k-%d", i), []byte("v")) //nolint:errcheck
	}
	waitFor(t, "the dead peer held suspect", func() bool {
		return tc.coords[0].Peers().NotUp() == 1 && tc.coords[0].Peers().Stats().Opened == 1
	})
	if _, err := tc.coords[0].CallPeer(ctx, tc.addrs[2], MsgGetReplica, nil); !errors.Is(err, errPeerUnusable) {
		t.Fatalf("call to a suspect peer = %v, want errPeerUnusable", err)
	}
}

// countCalls counts the messages the cluster's network carries to addr.
func (tc *testCluster) countCalls(addr string) *atomic.Int64 {
	var n atomic.Int64
	tc.net.SetFault(func(_, to, _ string) error {
		if to == addr {
			n.Add(1)
		}
		return nil
	})
	return &n
}

func (tc *testCluster) index(addr string) int {
	for i, a := range tc.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// TestHintRedeliveryBackoff: an unreachable hint target is not re-called
// every DeliverHints round. Its failed page writes make it suspect; inside
// the window no call goes, each window's end lets one page write through as
// the probe, and gossip reporting the node back delivers at once.
func TestHintRedeliveryBackoff(t *testing.T) {
	now := time.Unix(5000, 0)
	cfg := defaultCfg()
	cfg.CallTimeout = 50 * time.Millisecond
	cfg.Now = func() time.Time { return now }
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()

	key := "backoff-key"
	owners, _ := tc.ring.Successors(key, 3)
	target := owners[2]
	down := tc.index(target)
	tc.eps[down].Close()
	holder := tc.coords[tc.index(owners[0])]
	if err := holder.storeHintLocal(ctx, target, Record{Key: key, Val: []byte("v"), IsData: true, Ver: 1, Origin: "o"}); err != nil {
		t.Fatal(err)
	}
	calls := tc.countCalls(target)
	for i := 0; i < 3; i++ {
		holder.DeliverHints(ctx) // each page write fails: the target turns suspect
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d calls to the target in three rounds, want 3", got)
	}
	holder.DeliverHints(ctx)
	if got := calls.Load(); got != 3 {
		t.Fatalf("a round inside the suspect window called the target (%d calls)", got)
	}
	now = now.Add(time.Second)
	holder.DeliverHints(ctx)
	holder.DeliverHints(ctx)
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d calls after the window ended, want exactly one probe (4)", got)
	}
	// The target returns inside the new window: the hint stays parked
	// until gossip reports the node back, then delivers.
	tc.eps[down].Reopen()
	holder.DeliverHints(ctx)
	if holder.HintCount() != 1 {
		t.Fatal("a suspect target must be skipped inside its window")
	}
	holder.Peers().Up(target)
	holder.DeliverHints(ctx)
	if holder.HintCount() != 0 {
		t.Fatal("hint not delivered after gossip reported the target up")
	}
	if _, found, _ := tc.coords[down].GetLocal(key); !found {
		t.Fatal("writeback did not restore the replica")
	}
}

// TestHintWritebackCountsEachHintOnce: two writeback passes over one page —
// a Tick racing a direct DeliverHints — both get the page applied, but only
// the pass that removes a hint counts it delivered.
func TestHintWritebackCountsEachHintOnce(t *testing.T) {
	tc := newTestCluster(t, 3, defaultCfg())
	ctx := context.Background()
	holder, target := tc.coords[0], tc.coords[1]
	if err := holder.storeHintLocal(ctx, tc.addrs[1], Record{Key: "k", Val: []byte("v"), IsData: true, Ver: 1, Origin: "o"}); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	target.OnLocalOp = func(op string, _ int) error {
		if op == "put" {
			first := false
			once.Do(func() { first = true })
			if first {
				close(entered)
				<-release // the first pass holds here, inside the apply
			}
		}
		return nil
	}
	done := make(chan struct{})
	go func() {
		holder.DeliverHints(ctx)
		close(done)
	}()
	<-entered
	holder.DeliverHints(ctx) // the second pass delivers and removes the hint
	close(release)
	<-done
	if got := holder.Stats().HintsDelivered; got != 1 {
		t.Fatalf("HintsDelivered = %d for one hint, want 1", got)
	}
	if holder.HintCount() != 0 {
		t.Fatal("hint left parked")
	}
}
