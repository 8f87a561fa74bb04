package nwr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mystore/internal/resilience"
)

// cfgWithBreakers is defaultCfg plus a wired BreakerSet.
func cfgWithBreakers(bs *resilience.BreakerSet) Config {
	cfg := defaultCfg()
	cfg.Breakers = bs
	return cfg
}

// TestOpenBreakerSkipsDeadPeerOnWritePath: with a replica's breaker open,
// a quorum write must complete fast via the hint path instead of burning
// CallTimeout (or retries) against the dead peer.
func TestOpenBreakerSkipsDeadPeerOnWritePath(t *testing.T) {
	bs := resilience.NewBreakerSet(resilience.BreakerConfig{OpenFor: time.Minute})
	tc := newTestCluster(t, 5, cfgWithBreakers(bs))
	ctx := context.Background()

	key := "breaker-key"
	owners, _ := tc.ring.Successors(key, 3)
	// Kill the last replica and open its breaker, as gossip would after
	// classifying the failure.
	var downIdx int
	for i, a := range tc.addrs {
		if a == owners[2] {
			downIdx = i
		}
	}
	tc.eps[downIdx].Close()
	bs.ObservePeer(owners[2], resilience.PeerShortFail)

	// Coordinate from a non-owner so every replica write goes remote.
	coordIdx := -1
	for i, a := range tc.addrs {
		isOwner := false
		for _, o := range owners {
			if o == a {
				isOwner = true
			}
		}
		if !isOwner {
			coordIdx = i
			break
		}
	}
	if coordIdx < 0 {
		t.Fatal("no non-owner coordinator")
	}

	start := time.Now()
	if err := tc.coords[coordIdx].Put(ctx, key, []byte("v")); err != nil {
		t.Fatalf("put with open-breaker replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("put took %v; open breaker should fast-fail the dead peer", elapsed)
	}
	// No retries were spent on the open-breaker peer.
	if got := tc.coords[coordIdx].Stats().RetriedReplicaWrites; got != 0 {
		t.Fatalf("RetriedReplicaWrites = %d, want 0 (breaker open)", got)
	}
	// Put returns at the W quorum, which the two healthy replicas can reach
	// before the dead replica's goroutine touches its breaker — poll.
	deadline := time.Now().Add(2 * time.Second)
	for bs.Stats().FastFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expected breaker fast-failures on the write path")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerFedByCallOutcomes: repeated transport failures against a dead
// peer trip its breaker without any gossip involvement.
func TestBreakerFedByCallOutcomes(t *testing.T) {
	bs := resilience.NewBreakerSet(resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute})
	cfg := cfgWithBreakers(bs)
	cfg.Retries = 1
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()

	tc.eps[2].Close()
	dead := tc.addrs[2]
	for i := 0; i < 10; i++ {
		tc.coords[0].Put(ctx, fmt.Sprintf("k-%d", i), []byte("v")) //nolint:errcheck
	}
	// Give the background replica goroutines a moment to finish reporting.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := bs.States()[dead]; ok && st == resilience.Open {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("breaker for %s = %v, want open after repeated failures", dead, bs.States()[dead])
}

// TestHintRedeliveryBackoff: an unreachable hint target is not re-pinged
// every DeliverHints round; the next attempt backs off, and NoteTargetUp
// clears the backoff for an immediate retry.
func TestHintRedeliveryBackoff(t *testing.T) {
	now := time.Unix(5000, 0)
	cfg := defaultCfg()
	cfg.CallTimeout = 50 * time.Millisecond
	cfg.Now = func() time.Time { return now }
	tc := newTestCluster(t, 5, cfg)
	ctx := context.Background()

	key := "backoff-key"
	owners, _ := tc.ring.Successors(key, 3)
	var downIdx int
	for i, a := range tc.addrs {
		if a == owners[2] {
			downIdx = i
		}
	}
	tc.eps[downIdx].Close()
	if err := tc.coords[0].Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Find the node holding the hint.
	var holder *Coordinator
	deadline := time.Now().Add(2 * time.Second)
	for holder == nil && time.Now().Before(deadline) {
		for _, c := range tc.coords {
			if c.HintCount() > 0 {
				holder = c
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if holder == nil {
		t.Fatal("no hint was parked")
	}

	holder.DeliverHints(ctx) // target down: ping fails, backoff starts
	if holder.hintTargetDue(owners[2]) {
		t.Fatal("failed target must not be due immediately after a failed round")
	}
	// Second round inside the backoff window: the skip means no ping, so
	// even after reopening the target the hint stays parked.
	tc.eps[downIdx].Reopen()
	holder.DeliverHints(ctx)
	if holder.HintCount() != 1 {
		t.Fatal("backed-off target must be skipped inside its window")
	}
	// Gossip reports the node back: backoff clears, writeback succeeds.
	holder.NoteTargetUp(owners[2])
	holder.DeliverHints(ctx)
	if holder.HintCount() != 0 {
		t.Fatal("hint not delivered after NoteTargetUp")
	}
	if _, found, _ := tc.coords[downIdx].GetLocal(key); !found {
		t.Fatal("writeback did not restore the replica")
	}

	// The backoff window itself expires with the clock.
	holder.hintTargetFailed("elsewhere")
	if holder.hintTargetDue("elsewhere") {
		t.Fatal("freshly failed target must be inside its backoff window")
	}
	now = now.Add(time.Hour)
	if !holder.hintTargetDue("elsewhere") {
		t.Fatal("target must be due after the backoff window passes")
	}
	// Repeated failures grow the window but never beyond hintRetryMax.
	for i := 0; i < 40; i++ {
		holder.hintTargetFailed("elsewhere")
	}
	holder.hintMu.Lock()
	next := holder.hintRetry["elsewhere"].nextTry
	holder.hintMu.Unlock()
	if wait := next.Sub(now); wait > hintRetryMax {
		t.Fatalf("backoff window %v exceeds cap %v", wait, hintRetryMax)
	}
}
