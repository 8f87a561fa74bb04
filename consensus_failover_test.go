package mystore

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"mystore/internal/consensus"
)

// TestStrongFailoverAcrossLeaderKill loads a consensus range's leader with
// acked strong writes, kills it mid-lease (no goodbye — the lease is live
// and being renewed by heartbeats when the process dies), and asserts the
// paper's CP-tier contract: a successor takes over within 10 election
// timeouts, and every write acked before the kill is still readable —
// exact bytes — through the new leader.
func TestStrongFailoverAcrossLeaderKill(t *testing.T) {
	const et = 100 * time.Millisecond
	c := startTestCluster(t, ClusterOptions{
		Nodes:                 5,
		StrongRanges:          4,
		StrongElectionTimeout: et,
	})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Find a key whose range is led by a node other than 0, so the client's
	// bootstrap contact outlives the kill.
	var probe string
	victim := -1
	for k := 0; victim < 0 && k < 256; k++ {
		probe = fmt.Sprintf("fo-%d", k)
		if err := client.StrongPut(ctx, probe, []byte("pre")); err != nil {
			t.Fatalf("StrongPut %s: %v", probe, err)
		}
		for i, node := range c.Nodes() {
			if i > 0 && node.Consensus().LeadsKey(probe) {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("no consensus range led away from node 0")
	}

	// The acked set the failover must preserve.
	const writes = 40
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("%s-acked-%02d", probe, i)
		if err := client.StrongPut(ctx, key, []byte(key)); err != nil {
			t.Fatalf("StrongPut %s: %v", key, err)
		}
	}

	if err := c.KillNode(victim); err != nil {
		t.Fatalf("KillNode(%d): %v", victim, err)
	}
	killed := time.Now()

	// Strong writes to the dead leader's range must come back once a
	// successor wins the election — within the contract's 10 ETs.
	deadline := killed.Add(10 * et)
	for {
		opCtx, cancel := context.WithTimeout(ctx, 4*et)
		err := client.StrongPut(opCtx, probe, []byte("post"))
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("strong writes still failing %v after leader kill (limit %v): %v",
				time.Since(killed), 10*et, err)
		}
	}
	d := time.Since(killed)
	if d > 10*et {
		t.Fatalf("failover took %v, want < %v", d, 10*et)
	}
	t.Logf("failover took %v = %.1f election timeouts", d, float64(d)/float64(et))

	// A different node now leads the range.
	for i, node := range c.Nodes() {
		if i == victim {
			continue
		}
		if node.Consensus().LeadsKey(probe) {
			victim = -1 // someone else leads; contract satisfied
		}
	}
	if victim != -1 {
		t.Error("no surviving node reports leading the killed leader's range")
	}

	// No acked strong write is missing or altered. The acked keys hash
	// across every consensus range, and ranges the dead node also led run
	// their own elections on their own failure-detection clocks — so each
	// read retries within a generous post-heal window; only the value is
	// non-negotiable.
	readDeadline := time.Now().Add(30 * et)
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("%s-acked-%02d", probe, i)
		strongGetEventually(t, client, key, key, readDeadline)
	}
	strongGetEventually(t, client, probe, "post", readDeadline)
}

// strongGetEventually strong-reads key until it succeeds (retrying while
// the key's range is electing) or deadline passes; the value must match
// exactly on the first successful read — a wrong value is never excused.
func strongGetEventually(t *testing.T, client *Client, key, want string, deadline time.Time) {
	t.Helper()
	for {
		opCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		got, err := client.StrongGet(opCtx, key)
		cancel()
		if err == nil {
			if string(got) != want {
				t.Fatalf("StrongGet %s = %q, want %q", key, got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("StrongGet %s never succeeded after failover: %v", key, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStrongClientGoesStraightToTheLeader: once a range's leader has served
// the client, later strong operations on that range's keys go to it first —
// no NotLeader bounce.
func TestStrongClientGoesStraightToTheLeader(t *testing.T) {
	const ranges = 4
	c := startTestCluster(t, ClusterOptions{Nodes: 5, StrongRanges: ranges})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rejects := func() (n int64) {
		for _, node := range c.Nodes() {
			n += node.Consensus().Stats().NotLeaderRejects
		}
		return n
	}
	put := func(i int) {
		t.Helper()
		key := fmt.Sprintf("hop-%d", i)
		if err := client.StrongPut(ctx, key, []byte(key)); err != nil {
			t.Fatalf("StrongPut %s: %v", key, err)
		}
		if got, err := client.StrongGet(ctx, key); err != nil || string(got) != key {
			t.Fatalf("StrongGet %s = %q, %v", key, got, err)
		}
	}
	for i := 0; i < 64; i++ { // touches every range; bounces are expected here
		put(i)
	}
	before := rejects()
	for i := 64; i < 264; i++ {
		put(i)
	}
	if bounced := rejects() - before; bounced != 0 {
		t.Fatalf("%d NotLeader rejections over 400 strong ops on ranges whose leaders the client had met", bounced)
	}
}

// TestStrongNonMemberRedirectsAfterLongFailure: a range's pinned replica set
// is the only source of its group's membership. Once gossip long-fails a
// pinned member and the ring drops it, the ring walk for the range reaches a
// node outside the pinned set. That node must neither create a group nor
// wait for a leader: it redirects at once to a pinned member that is not
// down.
func TestStrongNonMemberRedirectsAfterLongFailure(t *testing.T) {
	const et = 100 * time.Millisecond
	c := startTestCluster(t, ClusterOptions{Nodes: 5, StrongRanges: 4, StrongElectionTimeout: et})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const keys = 32
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("pin-%d", i)
		if err := client.StrongPut(ctx, key, []byte(key)); err != nil {
			t.Fatalf("StrongPut %s: %v", key, err)
		}
	}
	const victim = 2
	dead := c.Nodes()[victim].Addr()
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// Wait until every live node has long-failed the victim out of its ring.
	deadline := time.Now().Add(5 * time.Second)
	for shrunk := false; !shrunk; {
		if time.Now().After(deadline) {
			t.Fatal("the killed node never left the live nodes' rings")
		}
		time.Sleep(20 * time.Millisecond)
		shrunk = true
		for i, n := range c.Nodes() {
			if i != victim && n.Ring().Len() != 4 {
				shrunk = false
			}
		}
	}

	checked := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("pin-%d", i)
		var members, outsiders []int
		for j, n := range c.Nodes() {
			if j == victim {
				continue
			}
			if n.Consensus().ReplicatesKey(key) {
				members = append(members, j)
			} else {
				outsiders = append(outsiders, j)
			}
		}
		if len(members) == 3 {
			continue // the victim was not pinned for this key's range
		}
		live := map[string]bool{}
		for _, j := range members {
			live[c.Nodes()[j].Addr()] = true
		}
		for _, j := range outsiders {
			node := c.Nodes()[j]
			opCtx, cancel := context.WithTimeout(ctx, 4*et)
			start := time.Now()
			err := node.StrongPut(opCtx, key, []byte("outsider"))
			took := time.Since(start)
			cancel()
			leader, redirected := consensus.ParseNotLeader(err)
			if !redirected || !live[leader] {
				t.Errorf("node %d, outside %s's pinned set: StrongPut = %v (took %v); want a redirect to a live pinned member %v, not %s",
					j, key, err, took, members, dead)
			} else if took >= et {
				t.Errorf("node %d took %v to redirect %s; want no leaderless wait", j, took, key)
			}
			if node.Consensus().ReplicatesKey(key) {
				t.Errorf("node %d, outside %s's pinned set, created a group for it", j, key)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no key's pinned set held the killed node")
	}
	t.Logf("%d non-member strong puts redirected", checked)
}

// TestStrongRestartedEmptyKeepsPinnedMembers: a node restarted empty after a
// range member long-failed must derive the range's replica set from every
// member gossip ever announced, the dead one included, as the survivors did
// when they created their groups. A strong op on that range through it acks
// or redirects, and no node outside the pinned set ever holds a group for
// the range: one that did would be a second replica set for the same range.
func TestStrongRestartedEmptyKeepsPinnedMembers(t *testing.T) {
	const et = 100 * time.Millisecond
	c := startTestCluster(t, ClusterOptions{Nodes: 5, StrongRanges: 4, StrongElectionTimeout: et})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const victim = 2
	var key string
	var members []int
	for i := 0; len(members) == 0 && i < 64; i++ {
		k := fmt.Sprintf("fresh-%d", i)
		if err := client.StrongPut(ctx, k, []byte(k)); err != nil {
			t.Fatalf("StrongPut %s: %v", k, err)
		}
		var set []int
		for j, n := range c.Nodes() {
			if n.Consensus().ReplicatesKey(k) {
				set = append(set, j)
			}
		}
		if slices.Contains(set, victim) && slices.ContainsFunc(set, func(j int) bool { return j != victim && j != 0 }) {
			key, members = k, set
		}
	}
	if key == "" {
		t.Fatal("no range pinned the victim with a restartable second member")
	}
	fresh := members[0]
	for _, j := range members {
		if j != victim && j != 0 {
			fresh = j
		}
	}

	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	waitRings := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			shrunk := true
			for i, n := range c.Nodes() {
				if i != victim && n.Ring().Len() != 4 {
					shrunk = false
				}
			}
			if shrunk {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the live nodes' rings never held exactly the four survivors", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitRings("after the kill")
	// RestartNodeFresh replaces a crashed node: crash the co-member first, so
	// the node it replaces stops and removes its store directory.
	if err := c.KillNode(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartNodeFresh(fresh); err != nil {
		t.Fatal(err)
	}
	waitRings("after the empty restart")

	opCtx, cancel := context.WithTimeout(ctx, 20*et)
	err = c.Nodes()[fresh].StrongPut(opCtx, key, []byte("after"))
	cancel()
	if _, redirected := consensus.ParseNotLeader(err); err != nil && !redirected {
		t.Errorf("StrongPut %s through the restarted node %d: %v; want an ack or a redirect", key, fresh, err)
	}
	time.Sleep(5 * et) // let any campaign the restarted node started reach its peers
	for j, n := range c.Nodes() {
		if j != victim && !slices.Contains(members, j) && n.Consensus().ReplicatesKey(key) {
			t.Errorf("node %d, outside %s's pinned set %v, holds a group for its range", j, key, members)
		}
	}
}

// TestStrongElectionReachesSuspectPeers: a vote request is not refused for a
// peer the view holds suspect. With every node holding every other suspect
// for the view's one-second window (ten election timeouts here), a strong
// write still finds or elects a leader and acks well inside that window.
func TestStrongElectionReachesSuspectPeers(t *testing.T) {
	const et = 100 * time.Millisecond
	c := startTestCluster(t, ClusterOptions{Nodes: 3, StrongRanges: 1, StrongElectionTimeout: et})
	if !c.WaitConverged(5 * time.Second) {
		t.Fatal("cluster did not converge")
	}
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	suspectEveryPeer(c)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 8*et)
	defer cancel()
	if err := client.StrongPut(ctx, "suspect-key", []byte("v")); err != nil {
		t.Fatalf("StrongPut with every peer suspect failed after %v: %v", time.Since(start), err)
	}
}

// TestStrongCommitReachesSuspectPeers: no consensus RPC is refused for a peer
// the view holds suspect. A range that has elected a leader keeps committing
// while every node re-marks every peer suspect every quarter election
// timeout, the way a stale verdict arriving after a healed partition would:
// appends and heartbeats go out regardless, and ten strong puts, half an
// election timeout apart, ack within 8 ET between them. When the view gated
// appends, each re-mark refused them until followers stood for election (a
// vote briefly returned a peer to up), so every put waited out an election:
// 1–3 ET each.
func TestStrongCommitReachesSuspectPeers(t *testing.T) {
	const et = 100 * time.Millisecond
	c := startTestCluster(t, ClusterOptions{Nodes: 3, StrongRanges: 1, StrongElectionTimeout: et})
	if !c.WaitConverged(5 * time.Second) {
		t.Fatal("cluster did not converge")
	}
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = client.StrongPut(ctx, "commit-0", []byte("v"))
	cancel()
	if err != nil {
		t.Fatalf("first StrongPut: %v", err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(et / 4)
		defer tick.Stop()
		for {
			suspectEveryPeer(c)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	defer func() { close(stop); <-done }()

	var spent time.Duration
	for i := 1; i <= 10; i++ {
		time.Sleep(et / 2)
		key := fmt.Sprintf("commit-%d", i)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 8*et)
		err := client.StrongPut(ctx, key, []byte("v"))
		cancel()
		if err != nil {
			t.Fatalf("StrongPut %s with every peer re-marked suspect failed after %v: %v", key, time.Since(start), err)
		}
		spent += time.Since(start)
	}
	if spent > 8*et {
		t.Fatalf("ten StrongPuts with every peer re-marked suspect took %v together, want at most 8 ET (%v)", spent, 8*et)
	}
}

// suspectEveryPeer makes every node's view hold every other node suspect,
// through the failed call reports that make a peer suspect.
func suspectEveryPeer(c *Cluster) {
	for _, n := range c.Nodes() {
		for _, p := range c.Nodes() {
			for i := 0; i < 10 && p != n && n.Breakers().IsUp(p.Addr()); i++ {
				n.Breakers().Report(p.Addr(), false)
			}
		}
	}
}
