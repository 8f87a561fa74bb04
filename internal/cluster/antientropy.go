package cluster

import (
	"context"
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
// The default path compares incrementally maintained Merkle trees (Dynamo
// §4.7): each node keeps, per peer, a hash tree over the records whose
// replica sets include both nodes, updated O(1) on every docstore apply.
// A round walks the two trees top-down — O(log leaves) hashes per level —
// so a converged pair settles after ONE root comparison, and a diverged
// pair localizes the damage to individual leaf ranges whose keys are then
// reconciled bidirectionally and moved by the record protocol: paged
// reads pull, batched writes push.

// Message types of the anti-entropy protocol.
const (
	// MsgAEChildren asks a peer for its tree-node hashes at one level
	// (the Merkle descent step).
	MsgAEChildren = "node.ae.children"
	// MsgAELeaf asks a peer for the record digests inside divergent leaves.
	MsgAELeaf = "node.ae.leaf"
)

const (
	// maxAEFrontier bounds tree indexes per descent RPC; a wider divergence
	// frontier is truncated and picked up again next round.
	maxAEFrontier = 256
	// maxAELeavesPerRound bounds how many divergent leaves one round
	// reconciles; massive divergence (a wiped node) heals across rounds.
	maxAELeavesPerRound = 64
)

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

// observeRecordApply is the docstore apply observer: it runs under the
// records collection's write lock on every applied mutation and folds the
// change into each affected peer tree — the O(1) incremental maintenance
// that makes a steady-state round cost one root comparison. It also trips
// the version-regression counter the chaos harness asserts on: no repair
// path may ever replace a record with an older version.
func (n *Node) observeRecordApply(old, new bson.D) {
	var oldRec, newRec nwr.Record
	var hasOld, hasNew bool
	if old != nil {
		if r, err := nwr.RecordFromDoc(old); err == nil {
			oldRec, hasOld = r, true
		}
	}
	if new != nil {
		if r, err := nwr.RecordFromDoc(new); err == nil {
			newRec, hasNew = r, true
		}
	}
	if hasOld && hasNew && oldRec.Newer(newRec) {
		n.aeRegressions.Add(1)
	}
	n.ae.mu.Lock()
	defer n.ae.mu.Unlock()
	if !n.ae.built {
		return // the lazy rebuild will see this record
	}
	self := n.Addr()
	apply := func(rec nwr.Record, add bool) {
		owners, err := n.ring.Successors(rec.Key, n.cfg.NWR.N)
		if err != nil {
			return
		}
		kh := ring.Hash(rec.Key)
		h := merkle.RecordHash(rec.Key, rec.Ver, rec.Origin, rec.Deleted)
		for _, o := range owners {
			if o == self {
				continue
			}
			t := n.ae.trees[o]
			if t == nil {
				t = merkle.New(merkle.DefaultLeafBits)
				if n.ae.trees == nil {
					n.ae.trees = map[string]*merkle.Tree{}
				}
				n.ae.trees[o] = t
			}
			if add {
				t.Add(kh, h)
			} else {
				t.Remove(kh, h)
			}
		}
	}
	if hasOld {
		apply(oldRec, false)
	}
	if hasNew {
		apply(newRec, true)
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
	self := n.Addr()
	n.store.C(nwr.RecordCollection).EachSynced(func() {
		n.ae.mu.Lock()
		n.ae.trees = trees
		n.ae.built = true
		n.ae.dirty = false
		n.ae.mu.Unlock()
	}, func(doc bson.D) bool {
		rec, err := nwr.RecordFromDoc(doc)
		if err != nil {
			return true
		}
		owners, err := n.ring.Successors(rec.Key, n.cfg.NWR.N)
		if err != nil {
			return true
		}
		kh := ring.Hash(rec.Key)
		h := merkle.RecordHash(rec.Key, rec.Ver, rec.Origin, rec.Deleted)
		for _, o := range owners {
			if o == self {
				continue
			}
			t := trees[o]
			if t == nil {
				t = merkle.New(merkle.DefaultLeafBits)
				trees[o] = t
			}
			t.Add(kh, h)
		}
		return true
	})
}

// pickAEPeer selects this round's partner with the node's seeded RNG over
// the sorted live peers, so -seed runs reconcile in a reproducible order.
func (n *Node) pickAEPeer() string {
	peers := n.gossiper.LiveEndpoints()
	candidates := peers[:0]
	for _, p := range peers {
		if p != n.Addr() {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	sort.Strings(candidates)
	n.mu.Lock()
	pick := candidates[n.rng.Intn(len(candidates))]
	n.mu.Unlock()
	return pick
}

// AntiEntropyRound reconciles with one random live peer. It returns how
// many records were pushed to the peer and how many newer records were
// pulled from it.
func (n *Node) AntiEntropyRound(ctx context.Context) (pushed, pulled int) {
	peer := n.pickAEPeer()
	if peer == "" {
		return 0, 0
	}
	return n.merkleAntiEntropyRound(ctx, peer)
}

// merkleAntiEntropyRound walks this node's tree for peer against peer's
// tree for this node: one hashes-per-level exchange localizes divergence to
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

	// Descend: compare the root, then only the children of divergent nodes,
	// level by level. A converged pair costs exactly the first exchange.
	frontier := []uint32{0}
	var divergedLeaves []uint32
	for level := 0; level <= tree.LeafBits(); level++ {
		if len(frontier) == 0 {
			return 0, 0 // trees agree
		}
		if len(frontier) > maxAEFrontier {
			frontier = frontier[:maxAEFrontier] // rest heals next round
		}
		remote, err := n.fetchPeerNodes(ctx, peer, level, frontier)
		if err != nil {
			roundErr = err
			return 0, 0
		}
		local := tree.Nodes(level, frontier)
		var diverged []uint32
		for i := range frontier {
			if i < len(remote) && remote[i] != local[i] {
				diverged = append(diverged, frontier[i])
			}
		}
		if level == tree.LeafBits() {
			divergedLeaves = diverged
			break
		}
		frontier = frontier[:0]
		for _, idx := range diverged {
			frontier = append(frontier, 2*idx, 2*idx+1)
		}
	}
	if len(divergedLeaves) == 0 {
		return 0, 0
	}
	if len(divergedLeaves) > maxAELeavesPerRound {
		divergedLeaves = divergedLeaves[:maxAELeavesPerRound]
	}
	n.aeLeavesDiverged.Add(int64(len(divergedLeaves)))
	return n.syncLeaves(ctx, peer, tree, divergedLeaves, &roundErr)
}

// fetchPeerNodes asks peer for its tree-node hashes at (level, idxs) in its
// tree covering this node.
func (n *Node) fetchPeerNodes(ctx context.Context, peer string, level int, idxs []uint32) ([]uint64, error) {
	req := make(bson.A, len(idxs))
	for i, idx := range idxs {
		req[i] = int64(idx)
	}
	n.aeDigestBytes.Add(int64(12*len(idxs)) + 16)
	resp, err := n.coord.CallPeer(ctx, peer, MsgAEChildren, bson.D{
		{Key: "from", Value: n.Addr()},
		{Key: "level", Value: int64(level)},
		{Key: "idxs", Value: req},
	})
	if err != nil {
		return nil, err
	}
	v, _ := resp.Get("hashes")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, nil
	}
	out := make([]uint64, len(arr))
	for i, e := range arr {
		if h, isInt := e.(int64); isInt {
			out[i] = uint64(h)
		}
	}
	return out, nil
}

// handleAEChildren serves the descent: return this node's tree-for-caller
// hashes at the requested level and indexes.
func (n *Node) handleAEChildren(body bson.D) (bson.D, error) {
	from := body.StringOr("from", "")
	levelV, _ := body.Get("level")
	level, _ := levelV.(int64)
	v, _ := body.Get("idxs")
	arr, _ := v.(bson.A)
	idxs := make([]uint32, 0, len(arr))
	for _, e := range arr {
		if i, isInt := e.(int64); isInt && i >= 0 {
			idxs = append(idxs, uint32(i))
		}
	}
	n.ensureForest()
	hashes := n.ae.treeFor(from).Nodes(int(level), idxs)
	out := make(bson.A, len(hashes))
	for i, h := range hashes {
		out[i] = int64(h)
	}
	return bson.D{{Key: "hashes", Value: out}}, nil
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

	// Our shared records inside the divergent leaves. This scan is O(keys)
	// but only runs when divergence exists — converged rounds stop at the
	// root comparison.
	local := n.sharedRecordsInLeaves(peer, tree, leafSet)

	type remoteDigest struct {
		rec nwr.Record
	}
	remote := map[string]remoteDigest{}
	if v, ok := resp.Get("digests"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, e := range arr {
				d, isDoc := e.(bson.D)
				if !isDoc {
					continue
				}
				key := d.StringOr("key", "")
				if key == "" {
					continue
				}
				verV, _ := d.Get("ver")
				ver, _ := verV.(int64)
				n.aeDigestBytes.Add(int64(len(key)) + 24)
				remote[key] = remoteDigest{rec: nwr.Record{
					Key: key, Ver: ver,
					Origin: d.StringOr("origin", ""),
					Strong: d.StringOr("strong", "0") == "1",
				}}
			}
		}
	}

	var wantKeys []string     // pull from peer: they have it newer or we lack it
	var pushRecs []nwr.Record // push to peer: we have it newer or they lack it
	for key, rd := range remote {
		lrec, have := local[key]
		if n.consensusGuardsRecord(rd.rec) || (have && n.consensusGuardsRecord(lrec)) {
			// A log-managed record whose range leader is elsewhere: the
			// replicated log is the only writer allowed to move it, or LWW
			// repair would race acked strong writes.
			continue
		}
		switch {
		case !have:
			wantKeys = append(wantKeys, key)
		case rd.rec.Newer(lrec):
			wantKeys = append(wantKeys, key)
		case lrec.Newer(rd.rec):
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

// handleAELeaf serves the leaf sync: return digests of this node's records
// inside the named leaves that are co-owned by the caller.
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
	digests := make(bson.A, 0, len(recs))
	for _, rec := range recs {
		if n.consensusGuardsRecord(rec) {
			continue // log-managed record, leader elsewhere: the log moves it
		}
		d := bson.D{
			{Key: "key", Value: rec.Key},
			{Key: "ver", Value: rec.Ver},
			{Key: "origin", Value: rec.Origin},
		}
		if rec.Strong {
			d = append(d, bson.E{Key: "strong", Value: "1"})
		}
		digests = append(digests, d)
	}
	return bson.D{{Key: "digests", Value: digests}}, nil
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
	// DigestBytes approximates reconciliation metadata shipped (tree hashes
	// plus key/version digests) — the O(keys) vs O(log keys) comparison.
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
