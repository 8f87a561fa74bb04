package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/nwr"
	"mystore/internal/transport"
)

// newSeededHarness mirrors newHarness but seeds every node's background RNG
// (reproducible anti-entropy peer selection) and lets tests adjust the
// config per node.
func newSeededHarness(t *testing.T, n int, mod func(i int, cfg *Config)) *harness {
	t.Helper()
	h := &harness{t: t, net: transport.NewMemNetwork(), now: time.Unix(5000, 0)}
	seeds := []string{addr(0)}
	for i := 0; i < n; i++ {
		ep, err := h.net.Endpoint(addr(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Seeds:          seeds,
			Weight:         1,
			NWR:            nwr.Config{N: 3, W: 2, R: 1, Retries: 1, CallTimeout: time.Second},
			GossipInterval: time.Second,
			Now:            h.clock,
			Seed:           int64(i + 1),
		}
		if mod != nil {
			mod(i, &cfg)
		}
		node, err := NewNode(ep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		h.eps = append(h.eps, ep)
		h.nodes = append(h.nodes, node)
	}
	return h
}

// fullAERound runs one anti-entropy round on every node.
func fullAERound(h *harness) {
	for i, n := range h.nodes {
		if h.eps[i].Closed() {
			continue
		}
		n.AntiEntropyRound(context.Background())
	}
}

// ownersOf returns the replica set node indexes for key.
func ownersOf(h *harness, key string) []*Node {
	owners, _ := h.nodes[0].Ring().Successors(key, 3)
	var out []*Node
	for _, o := range owners {
		for _, n := range h.nodes {
			if n.Addr() == o {
				out = append(out, n)
			}
		}
	}
	return out
}

func TestMerkleDivergenceRepairConvergence(t *testing.T) {
	// k corrupted replicas — stale versions planted on individual owners —
	// must heal within ⌈log₂ n⌉+1 full rounds (n=5 nodes ⇒ 4 rounds): the
	// Merkle descent localizes each divergence in one exchange, and seeded
	// random peer selection spreads repair epidemically. Seeds make the
	// round schedule deterministic, so this bound is reproducible, not
	// flaky.
	h := newSeededHarness(t, 5, nil)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()

	const records = 200
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("mk-%03d", i), []byte("good")); err != nil {
			t.Fatal(err)
		}
	}
	h.converge(4)
	// Reach full replication first (W=2 acks synchronously; stragglers and
	// any hints settle through a few rounds).
	for r := 0; r < 12; r++ {
		fullAERound(h)
	}

	// Corrupt k replicas: on one owner per key, replace the record with an
	// ancient version (silent bit-rot / restored-from-old-backup model).
	const k = 10
	type corruption struct {
		key    string
		victim *Node
	}
	var corrupted []corruption
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("mk-%03d", i*7)
		owners := ownersOf(h, key)
		if len(owners) == 0 {
			continue
		}
		victim := owners[i%len(owners)]
		coll := victim.Store().C(nwr.RecordCollection)
		docs, _ := coll.Find(nil, docstoreFindAll())
		for _, d := range docs {
			if d.StringOr("self-key", "") == key {
				id, _ := d.Get("_id")
				coll.Delete(id) //nolint:errcheck
			}
		}
		stale := nwr.Record{Key: key, Val: []byte("ancient"), IsData: true, Ver: 1, Origin: "old"}
		if err := victim.Coordinator().ApplyLocal(stale); err != nil {
			t.Fatal(err)
		}
		corrupted = append(corrupted, corruption{key: key, victim: victim})
	}

	healed := func() bool {
		for _, cr := range corrupted {
			rec, found, _ := cr.victim.Coordinator().GetLocal(cr.key)
			if !found || string(rec.Val) != "good" {
				return false
			}
		}
		return true
	}
	const maxRounds = 4 // ⌈log₂ 5⌉ + 1
	rounds := 0
	for ; rounds < maxRounds && !healed(); rounds++ {
		fullAERound(h)
	}
	if !healed() {
		for _, cr := range corrupted {
			rec, found, _ := cr.victim.Coordinator().GetLocal(cr.key)
			t.Logf("%s on %s: found=%v val=%q ver=%d", cr.key, cr.victim.Addr(), found, rec.Val, rec.Ver)
		}
		t.Fatalf("%d corrupted replicas not healed within %d full rounds", len(corrupted), maxRounds)
	}
	for _, n := range h.nodes {
		if vr := n.VersionRegressions(); vr != 0 {
			t.Fatalf("repair regressed %d records on %s", vr, n.Addr())
		}
	}
	t.Logf("healed %d corruptions in %d full rounds", len(corrupted), rounds)

	// On the healed cluster a round compares tree hashes, not records: it
	// ships less than a per-record exchange (a 24-byte digest per replica).
	digestBytes := func() (sum int64) {
		for _, n := range h.nodes {
			sum += n.AEStats().DigestBytes
		}
		return sum
	}
	before := digestBytes()
	fullAERound(h)
	if shipped, perRecord := digestBytes()-before, int64(24*3*records); shipped <= 0 || shipped >= perRecord {
		t.Fatalf("steady-state round shipped %dB of digests, want in (0, %d)", shipped, perRecord)
	}
}

func TestStreamTransferCrashMidBatch(t *testing.T) {
	// A node loses its store and recovers over batched writes; the link
	// dies mid-transfer (2 batches in), then the node restarts its endpoint.
	// Nothing acked before the crash may be lost or regressed, and the
	// resumed transfer completes — batches merge last-write-wins, so
	// re-sending is harmless.
	h := newSeededHarness(t, 3, nil)
	h.converge(8)
	c := h.client(t)
	ctx := context.Background()

	// 16 KiB values: a 256 KiB batch carries about 15 of them, so one
	// anti-entropy push takes several batches.
	const records = 120
	payload := bytes.Repeat([]byte("p"), 16<<10)
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("cr-%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	h.converge(4)
	for r := 0; r < 6; r++ {
		fullAERound(h)
	}

	victim := h.nodes[2]
	coll := victim.Store().C(nwr.RecordCollection)
	lost := coll.Len()
	if lost == 0 {
		t.Fatal("victim held no replicas")
	}
	// Wipe the victim's records (disk replaced).
	for {
		docs, _ := coll.Find(nil, docstoreFindAll())
		if len(docs) == 0 {
			break
		}
		for _, d := range docs {
			id, _ := d.Get("_id")
			coll.Delete(id) //nolint:errcheck
		}
	}

	// Fail the batched writes to the victim after 2 delivered batches.
	var mu sync.Mutex
	batches, faulting := 0, true
	h.net.SetFault(func(from, to, msgType string) error {
		if msgType != nwr.MsgPutReplica || to != victim.Addr() {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if !faulting {
			return nil
		}
		batches++
		if batches > 2 {
			return errors.New("injected: link died mid-stream")
		}
		return nil
	})

	// Peers push what they can before the link dies.
	for r := 0; r < 4; r++ {
		for i, n := range h.nodes {
			if i != 2 {
				n.AntiEntropyRound(ctx)
			}
		}
	}
	applied := map[string]int64{}
	docs, _ := coll.Find(nil, docstoreFindAll())
	for _, d := range docs {
		key := d.StringOr("self-key", "")
		verV, _ := d.Get("_ver")
		ver, _ := verV.(int64)
		applied[key] = ver
	}
	if len(applied) == 0 {
		t.Fatal("no batch landed before the injected failure")
	}
	if len(applied) >= lost {
		t.Fatalf("fault never fired: %d/%d records already back", len(applied), lost)
	}

	// "Crash" the victim's endpoint entirely, prove transfers fail cleanly,
	// then restart it and heal the link.
	h.eps[2].Close()
	for i, n := range h.nodes {
		if i != 2 {
			n.AntiEntropyRound(ctx)
		}
	}
	h.eps[2].Reopen()
	mu.Lock()
	faulting = false
	mu.Unlock()

	for r := 0; r < 60 && coll.Len() < lost; r++ {
		fullAERound(h)
	}
	if got := coll.Len(); got < lost {
		t.Fatalf("resume incomplete: %d of %d replicas restored", got, lost)
	}
	// Nothing that was acked mid-stream regressed or vanished.
	final := map[string]int64{}
	docs, _ = coll.Find(nil, docstoreFindAll())
	for _, d := range docs {
		key := d.StringOr("self-key", "")
		verV, _ := d.Get("_ver")
		ver, _ := verV.(int64)
		final[key] = ver
	}
	for key, ver := range applied {
		got, ok := final[key]
		if !ok {
			t.Fatalf("acked record %s lost across the crash", key)
		}
		if got < ver {
			t.Fatalf("acked record %s regressed: %d -> %d", key, ver, got)
		}
	}
	for _, n := range h.nodes {
		if vr := n.VersionRegressions(); vr != 0 {
			t.Fatalf("stream recovery regressed %d records on %s", vr, n.Addr())
		}
	}
}

func TestMerkleForestConcurrentWritesRace(t *testing.T) {
	// Hammer the forest: client writes racing anti-entropy rounds and
	// rebalance passes across every node. -race is the main assertion; the
	// functional one is that the incrementally maintained trees equal a
	// from-scratch rebuild once the dust settles.
	h := newSeededHarness(t, 3, nil)
	h.converge(8)
	c := h.client(t)
	ctx := context.Background()
	for _, n := range h.nodes {
		n.ensureForest()
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for _, n := range h.nodes {
		churn.Add(1)
		go func(n *Node) {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n.AntiEntropyRound(ctx)
				n.Rebalance(ctx)
			}
		}(n)
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 150; i++ {
				c.Put(ctx, fmt.Sprintf("h-%d-%03d", w, i), []byte("x")) //nolint:errcheck
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	churn.Wait()
	h.converge(6)

	// Background replication goroutines may drain for a few more moments;
	// retry the coherence check until the store quiesces.
	for _, n := range h.nodes {
		ok := false
		var before, after map[string]uint64
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			time.Sleep(50 * time.Millisecond)
			n.ensureForest()
			before = forestRoots(n)
			n.ae.markDirty()
			n.ensureForest()
			after = forestRoots(n)
			ok = rootsEqual(before, after)
		}
		if !ok {
			t.Fatalf("%s: incremental forest diverged from rebuild:\n inc: %v\n reb: %v",
				n.Addr(), before, after)
		}
	}
	for _, n := range h.nodes {
		if vr := n.VersionRegressions(); vr != 0 {
			t.Fatalf("hammer regressed %d records on %s", vr, n.Addr())
		}
	}
}

func forestRoots(n *Node) map[string]uint64 {
	n.ae.mu.Lock()
	defer n.ae.mu.Unlock()
	out := make(map[string]uint64, len(n.ae.trees))
	for peer, tree := range n.ae.trees {
		out[peer] = tree.Root()
	}
	return out
}

func rootsEqual(a, b map[string]uint64) bool {
	for peer, root := range a {
		if root != 0 && b[peer] != root {
			return false
		}
	}
	for peer, root := range b {
		if root != 0 && a[peer] != root {
			return false
		}
	}
	return true
}
