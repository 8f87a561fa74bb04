package cluster

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"
	"sync"

	"mystore/internal/bson"
	"mystore/internal/merkle"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/trace"
)

// Active anti-entropy: the paper's future-work direction of "solving
// problems on data's consistency" (§7). Read repair only fixes replicas of
// keys that are actually read; anti-entropy sweeps the rest.
//
// Each node keeps, per peer, a Merkle leaf row over the records whose
// replica sets include both nodes, updated O(1) on every docstore apply
// (Dynamo §4.7). A round is at most two exchanges: the initiator sends its
// root for the peer, and a converged pair settles there; otherwise the peer
// answers with its whole row, the initiator compares the rows leaf by leaf,
// and one leaf exchange fetches the peer's record digests inside the
// diverged leaves. Those keys are reconciled bidirectionally and moved by
// the record protocol: paged reads pull, batched writes push.

// Message types of the anti-entropy protocol.
const (
	// MsgAERow carries the caller's root for the callee. The callee answers
	// nothing when its own root for the caller matches, and its whole leaf
	// row otherwise.
	MsgAERow = "node.ae.row"
	// MsgAELeaf asks a peer for the record digests inside divergent leaves.
	MsgAELeaf = "node.ae.leaf"
)

// maxAELeavesPerRound bounds how many divergent leaves one round
// reconciles; massive divergence (a wiped node) heals across rounds.
const maxAELeavesPerRound = 64

// aeState is the node's Merkle forest: one tree per peer, covering exactly
// the records whose replica sets include both this node and that peer (a
// whole-store tree would never match between peers, since each stores only
// the keys it owns). The forest is maintained incrementally by the docstore
// apply observer and rebuilt lazily — first use after a restart or a ring
// change scans the records collection once.
type aeState struct {
	mu    sync.Mutex
	trees map[string]*merkle.Tree
	built bool
	dirty bool
}

// markDirty schedules a rebuild (ring changed: ownership moved between
// trees).
func (s *aeState) markDirty() {
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()
}

// treeFor returns the tree tracking peer, creating an empty one on demand —
// holding no shared keys is itself comparable state (the peer may hold keys
// this node lacks).
func (s *aeState) treeFor(peer string) *merkle.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trees[peer]
	if t == nil {
		t = merkle.New(merkle.DefaultLeafBits)
		if s.trees == nil {
			s.trees = map[string]*merkle.Tree{}
		}
		s.trees[peer] = t
	}
	return t
}

// recordOf parses a stored document and hashes its version; a nil or
// unparsable document is no record, with hash 0.
func recordOf(doc bson.D) (nwr.Record, uint64) {
	if doc == nil {
		return nwr.Record{}, 0
	}
	rec, err := nwr.RecordFromDoc(doc)
	if err != nil {
		return nwr.Record{}, 0
	}
	return rec, merkle.RecordHash(rec.Key, rec.Ver, rec.Origin, rec.Deleted)
}

// foldRecord swaps oldHash for newHash (0 is no record) in key's leaf of
// every tree in trees shared with key's other owners, creating trees on
// demand. The caller owns trees.
func (n *Node) foldRecord(trees map[string]*merkle.Tree, key string, oldHash, newHash uint64) {
	owners, err := n.ring.Successors(key, n.cfg.NWR.N)
	if err != nil {
		return
	}
	kh := ring.Hash(key)
	for _, o := range owners {
		if o == n.Addr() {
			continue
		}
		t := trees[o]
		if t == nil {
			t = merkle.New(merkle.DefaultLeafBits)
			trees[o] = t
		}
		t.Replace(kh, oldHash, newHash)
	}
}

// observeRecordApply is the docstore apply observer: it runs under the
// records collection's write lock on every applied mutation and folds the
// change into each affected peer tree — the O(1) incremental maintenance
// that makes a steady-state round cost one root comparison. It also trips
// the version-regression counter the chaos harness asserts on: no repair
// path may ever replace a record with an older version.
func (n *Node) observeRecordApply(old, new bson.D) {
	oldRec, oldHash := recordOf(old)
	newRec, newHash := recordOf(new)
	if oldRec.Key != "" && newRec.Key != "" && oldRec.Newer(newRec) {
		n.aeRegressions.Add(1)
	}
	n.ae.mu.Lock()
	defer n.ae.mu.Unlock()
	if !n.ae.built {
		return // the lazy rebuild will see this record
	}
	if key := cmp.Or(newRec.Key, oldRec.Key); key != "" {
		n.foldRecord(n.ae.trees, key, oldHash, newHash)
	}
}

// ensureForest rebuilds the Merkle forest if it is missing or stale. The
// scan runs under the collection read lock with the live-update window
// opened at the exact snapshot point (EachSynced's begin hook), so every
// concurrent apply is counted exactly once: either the scan sees it or the
// observer does, never both.
func (n *Node) ensureForest() {
	n.ae.mu.Lock()
	fresh := n.ae.built && !n.ae.dirty
	n.ae.mu.Unlock()
	if fresh {
		return
	}
	trees := map[string]*merkle.Tree{}
	n.store.C(nwr.RecordCollection).EachSynced(func() {
		n.ae.mu.Lock()
		n.ae.trees = trees
		n.ae.built = true
		n.ae.dirty = false
		n.ae.mu.Unlock()
	}, func(doc bson.D) bool {
		if rec, h := recordOf(doc); rec.Key != "" {
			n.foldRecord(trees, rec.Key, 0, h)
		}
		return true
	})
}

// pickAEPeer selects this round's partner with the node's seeded RNG over
// the other ring members in address order, so -seed runs reconcile in a
// reproducible order.
func (n *Node) pickAEPeer() string {
	candidates := slices.DeleteFunc(n.members(), func(p string) bool { return p == n.Addr() })
	if len(candidates) == 0 {
		return ""
	}
	n.mu.Lock()
	pick := candidates[n.rng.Intn(len(candidates))]
	n.mu.Unlock()
	return pick
}

// AntiEntropyRound reconciles with one random ring member. It returns how
// many records were pushed to the peer and how many newer records were
// pulled from it.
func (n *Node) AntiEntropyRound(ctx context.Context) (pushed, pulled int) {
	peer := n.pickAEPeer()
	if peer == "" {
		return 0, 0
	}
	return n.merkleAntiEntropyRound(ctx, peer)
}

// merkleAntiEntropyRound compares this node's tree for peer with peer's
// tree for this node: one root-then-row exchange localizes divergence to
// leaf ranges, then a single leaf-digest exchange reconciles those ranges
// bidirectionally, pulling newer records and pushing ours back.
func (n *Node) merkleAntiEntropyRound(ctx context.Context, peer string) (pushed, pulled int) {
	ctx, sp := trace.Start(ctx, "ae.round")
	sp.SetPeer(peer)
	var roundErr error
	defer func() { sp.End(roundErr) }()
	n.aeRounds.Add(1)
	n.ensureForest()
	tree := n.ae.treeFor(peer)

	n.aeDigestBytes.Add(16) // the root and its framing
	resp, err := n.coord.CallPeer(ctx, peer, MsgAERow, bson.D{
		{Key: "from", Value: n.Addr()},
		{Key: "root", Value: int64(tree.Root())},
	})
	if err != nil {
		roundErr = err
		return 0, 0
	}
	v, diverged := resp.Get("row")
	if !diverged {
		return 0, 0 // trees agree
	}
	row, _ := v.([]byte)
	n.aeDigestBytes.Add(int64(len(row)))
	leaves, err := tree.Diff(row, maxAELeavesPerRound)
	if err != nil || len(leaves) == 0 {
		roundErr = err
		return 0, 0
	}
	n.aeLeavesDiverged.Add(int64(len(leaves)))
	return n.syncLeaves(ctx, peer, tree, leaves, &roundErr)
}

// handleAERow serves the root exchange: nothing when this node's tree for
// the caller has the caller's root, the whole row otherwise.
func (n *Node) handleAERow(body bson.D) (bson.D, error) {
	v, _ := body.Get("root")
	root, ok := v.(int64)
	if !ok {
		return nil, errors.New("cluster: ae.row requires root")
	}
	n.ensureForest()
	tree := n.ae.treeFor(body.StringOr("from", ""))
	if tree.Root() == uint64(root) {
		return nil, nil
	}
	return bson.D{{Key: "row", Value: tree.Row()}}, nil
}

// syncLeaves reconciles the divergent leaf ranges: one RPC fetches the
// peer's record digests inside them, a local scan gathers ours, and the
// diff drives pulls (peer newer or only-peer) and batched pushes (we newer
// or only-us).
func (n *Node) syncLeaves(ctx context.Context, peer string, tree *merkle.Tree, leaves []uint32, roundErr *error) (pushed, pulled int) {
	leafSet := make(map[uint32]bool, len(leaves))
	req := make(bson.A, len(leaves))
	for i, l := range leaves {
		leafSet[l] = true
		req[i] = int64(l)
	}
	resp, err := n.coord.CallPeer(ctx, peer, MsgAELeaf, bson.D{
		{Key: "from", Value: n.Addr()},
		{Key: "leaves", Value: req},
	})
	if err != nil {
		*roundErr = err
		return 0, 0
	}
	digests, err := nwr.RecordList(resp)
	if err != nil {
		*roundErr = err
		return 0, 0
	}

	// Our shared records inside the divergent leaves. This scan is O(keys)
	// but only runs when divergence exists — converged rounds stop at the
	// root comparison.
	local := n.sharedRecordsInLeaves(peer, tree, leafSet)

	remote := make(map[string]nwr.Record, len(digests))
	for _, rec := range digests {
		n.aeDigestBytes.Add(int64(len(rec.Key)) + 24)
		remote[rec.Key] = rec
	}

	var wantKeys []string     // pull from peer: they have it newer or we lack it
	var pushRecs []nwr.Record // push to peer: we have it newer or they lack it
	for key, rrec := range remote {
		lrec, have := local[key]
		if n.consensusGuardsRecord(rrec) || (have && n.consensusGuardsRecord(lrec)) {
			// A log-managed record whose range leader is elsewhere: the
			// replicated log is the only writer allowed to move it, or LWW
			// repair would race acked strong writes.
			continue
		}
		switch {
		case !have:
			wantKeys = append(wantKeys, key)
		case rrec.Newer(lrec):
			wantKeys = append(wantKeys, key)
		case lrec.Newer(rrec):
			pushRecs = append(pushRecs, lrec)
		}
	}
	for key, lrec := range local {
		if _, listed := remote[key]; !listed && !n.consensusGuardsRecord(lrec) {
			pushRecs = append(pushRecs, lrec)
		}
	}
	sort.Strings(wantKeys)
	sort.Slice(pushRecs, func(i, j int) bool { return pushRecs[i].Key < pushRecs[j].Key })

	pulled = n.pullRecords(ctx, peer, wantKeys)
	pushed, _ = n.coord.WriteRecords(ctx, peer, pushRecs)
	return pushed, pulled
}

// sharedRecordsInLeaves gathers this node's records that live in the given
// leaf ranges and are co-owned by peer, in one read-locked pass.
func (n *Node) sharedRecordsInLeaves(peer string, tree *merkle.Tree, leafSet map[uint32]bool) map[string]nwr.Record {
	out := map[string]nwr.Record{}
	n.store.C(nwr.RecordCollection).Each(func(doc bson.D) bool {
		rec, err := nwr.RecordFromDoc(doc)
		if err != nil {
			return true
		}
		if !leafSet[tree.Leaf(ring.Hash(rec.Key))] {
			return true
		}
		owners, err := n.ring.Successors(rec.Key, n.cfg.NWR.N)
		if err != nil {
			return true
		}
		for _, o := range owners {
			if o == peer {
				out[rec.Key] = rec
				break
			}
		}
		return true
	})
	return out
}

// handleAELeaf serves the leaf sync: the records of this node inside the
// named leaves that are co-owned by the caller, without their values.
func (n *Node) handleAELeaf(body bson.D) (bson.D, error) {
	from := body.StringOr("from", "")
	v, _ := body.Get("leaves")
	arr, _ := v.(bson.A)
	leafSet := make(map[uint32]bool, len(arr))
	for _, e := range arr {
		if i, isInt := e.(int64); isInt && i >= 0 {
			leafSet[uint32(i)] = true
		}
	}
	n.ensureForest()
	tree := n.ae.treeFor(from)
	recs := n.sharedRecordsInLeaves(from, tree, leafSet)
	docs := make(bson.A, 0, len(recs))
	for _, rec := range recs {
		if n.consensusGuardsRecord(rec) {
			continue // log-managed record, leader elsewhere: the log moves it
		}
		rec.Val = nil
		docs = append(docs, rec.ToDoc())
	}
	return bson.D{{Key: "records", Value: docs}}, nil
}

// pullRecords reads keys' records from peer (reads resumed at their
// consumed cursor) and applies each here on its own, last-write-wins: a
// record that fails to apply does not hold back the others, and the next
// round retries it.
func (n *Node) pullRecords(ctx context.Context, peer string, keys []string) (pulled int) {
	if len(keys) == 0 {
		return 0
	}
	got, _ := n.coord.ReadRecords(ctx, peer, keys, false)
	for _, rec := range got {
		if n.coord.ApplyLocalCtx(ctx, rec) == nil {
			pulled++
		}
	}
	return pulled
}

// AEStats snapshots the anti-entropy counters; the transfer volume is in
// nwr.Stats.
type AEStats struct {
	// Rounds counts anti-entropy rounds initiated.
	Rounds int64
	// DigestBytes approximates reconciliation metadata shipped: roots, leaf
	// rows and record digests.
	DigestBytes int64
	// LeavesDiverged counts leaf ranges that needed reconciliation.
	LeavesDiverged int64
	// VersionRegressions counts applied mutations that replaced a record
	// with an older version — must stay zero (chaos invariant 5).
	VersionRegressions int64
}

// AEStats returns this node's anti-entropy counters.
func (n *Node) AEStats() AEStats {
	return AEStats{
		Rounds:             n.aeRounds.Load(),
		DigestBytes:        n.aeDigestBytes.Load(),
		LeavesDiverged:     n.aeLeavesDiverged.Load(),
		VersionRegressions: n.aeRegressions.Load(),
	}
}

// VersionRegressions exposes chaos invariant 5's tripwire directly.
func (n *Node) VersionRegressions() int64 { return n.aeRegressions.Load() }
