// The node's side of the CP replication tier: wiring the consensus manager
// to the transport, the local store, the ring walk, and the record protocol
// for snapshot catch-up.
package cluster

import (
	"context"
	"path/filepath"
	"sort"

	"mystore/internal/bson"
	"mystore/internal/consensus"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/transport"
)

// startConsensus builds the consensus manager over the node's environment.
func (n *Node) startConsensus() error {
	cfg := n.cfg
	rf := cfg.NWR.N
	m, err := consensus.NewManager(consensus.Options{
		Ranges:            cfg.StrongRanges,
		ReplicationFactor: rf,
		ElectionTimeout:   cfg.StrongElectionTimeout,
		WALDir:            filepath.Join(n.store.Dir(), "consensus"),
		SyncEveryAppend:   cfg.Store.WAL.SyncEveryAppend,
		Seed:              cfg.Seed,
		Now:               cfg.Now,
	}, consensus.Env{
		Self: n.tr.Addr(),
		// Consensus RPCs go straight to the transport, never refused by the
		// peer view: Raft's heartbeats and election timer are the range's own
		// failure detector, and a pinned member must be reached the moment it
		// returns. Each is bounded by the replica CallTimeout (the manager
		// bounds a vote by one election timeout) and its outcome feeds the view.
		Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
			ctx, cancel := context.WithTimeout(ctx, cfg.NWR.CallTimeout)
			defer cancel()
			resp, err := n.tr.Call(ctx, target, transport.Message{Type: msgType, Body: body})
			n.coord.Peers().Report(target, err == nil || transport.IsRemote(err))
			return resp, err
		},
		// A committed entry is durable in a majority's consensus logs and is
		// re-applied from there after a crash, so its apply logs into the
		// store's WAL without waiting for that WAL's fsync; SyncApplied is the
		// wait, taken once per log compaction instead of once per entry.
		Apply: func(ctx context.Context, rec nwr.Record) error {
			return n.coord.ApplyLocalUnsynced(ctx, rec)
		},
		SyncApplied: n.store.SyncWAL,
		Read: func(key string) (nwr.Record, bool, error) {
			return n.coord.GetLocal(key)
		},
		// The walk is over the pinned ring, so a long-failed member stays in
		// its ranges' sets. A node outside a set redirects to its first
		// member, so the members the peer view holds down go last.
		Replicas: func(lo uint32) ([]string, error) {
			if n.pinned.Len() < rf {
				return nil, consensus.ErrRingNotReady
			}
			peers, err := n.pinned.SuccessorsAt(lo, rf)
			up := n.coord.Peers().IsUp
			sort.SliceStable(peers, func(i, j int) bool { return up(peers[i]) && !up(peers[j]) })
			return peers, err
		},
		StreamRange: func(ctx context.Context, target string, lo, hi uint32) bool {
			return n.streamRangeTo(ctx, target, lo, hi)
		},
	})
	if err != nil {
		return err
	}
	n.cns = m
	// Hint writeback leaves log-managed (_strong) records parked while their
	// range's leader is elsewhere — the replicated log is their only legal
	// mover; a later pass retries after failover. Eventual-tier records in
	// the same hash range keep flowing normally.
	n.coord.SkipHint = n.consensusGuardsRecord
	return nil
}

// Consensus exposes the consensus manager (nil when the tier is off).
func (n *Node) Consensus() *consensus.Manager { return n.cns }

// strongReply is the answer to a served strong operation. It carries the
// range count, from which a client derives the key's range and remembers this
// node as its leader (Client.callStrong).
func (n *Node) strongReply(fields ...bson.E) bson.D {
	return append(bson.D(fields), bson.E{Key: "ranges", Value: int64(n.cfg.StrongRanges)})
}

// StrongPut writes key through the range's replicated log.
func (n *Node) StrongPut(ctx context.Context, key string, val []byte) error {
	if n.cns == nil {
		return consensus.ErrDisabled
	}
	return n.cns.Put(ctx, key, val, true)
}

// StrongGet serves a leader-local strong read.
func (n *Node) StrongGet(ctx context.Context, key string) ([]byte, error) {
	if n.cns == nil {
		return nil, consensus.ErrDisabled
	}
	rec, err := n.cns.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return rec.Val, nil
}

// StrongDelete replicates a tombstone through the range's log.
func (n *Node) StrongDelete(ctx context.Context, key string) error {
	if n.cns == nil {
		return consensus.ErrDisabled
	}
	return n.cns.Delete(ctx, key)
}

// consensusGuardsRecord reports whether background LWW repair (anti-entropy
// push/pull, hint drain) must leave rec alone: it was written through a
// consensus log (_strong) and its range's leader is on another node, so LWW
// movement would race the log. Eventual-tier records are never guarded —
// a consensus range's hash span carries ordinary quorum traffic too, and
// that traffic still needs hints and repair.
func (n *Node) consensusGuardsRecord(rec nwr.Record) bool {
	return rec.Strong && n.cns != nil && n.cns.GuardKey(rec.Key)
}

// consensusReplicatesKey reports whether this node is a consensus replica
// for key's range; rebalance treats log-managed records of such ranges as
// owned (never migrates them away and drops the local copy).
func (n *Node) consensusReplicatesKey(key string) bool {
	return n.cns != nil && n.cns.ReplicatesKey(key)
}

// hashInRange reports whether ring hash h falls in [lo, hi); hi == 0 means
// the range runs to the top of the 32-bit space.
func hashInRange(h, lo, hi uint32) bool {
	if hi == 0 {
		return h >= lo
	}
	return h >= lo && h < hi
}

// streamRangeTo brings target up to date on every local record hashing into
// [lo, hi) (pushNewer: per page of keys, a digest read, then batched writes
// of what target lacks or holds older), reporting whether target applied
// all of it. It is the
// consensus snapshot transport: LWW-idempotent batches make a crash
// mid-transfer resumable by re-running.
func (n *Node) streamRangeTo(ctx context.Context, target string, lo, hi uint32) bool {
	var keys []string
	n.store.C(nwr.RecordCollection).Each(func(doc bson.D) bool {
		rec, err := nwr.RecordFromDoc(doc)
		if err == nil && hashInRange(ring.Hash(rec.Key), lo, hi) {
			keys = append(keys, rec.Key)
		}
		return true
	})
	_, _, ok := n.pushNewer(ctx, target, keys)
	return ok
}
