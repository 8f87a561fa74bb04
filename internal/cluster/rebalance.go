package cluster

import (
	"context"
	"sort"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/resilience"
)

// Rebalance runs the paper's two data-movement duties on this node:
//
//   - Node addition (§5.2.4 "adding node"): records whose hash now falls in
//     a new node's region are pushed there and removed here, "the mapping
//     and migrating operation are executed by the next physical node on the
//     ring" — which is exactly the node currently holding the data.
//   - Node removal (Fig 9): for records this node still owns, any owner in
//     the current replica set that lacks the record receives a copy, so the
//     replication factor recovers after a departure.
//
// One in-place pass over the records collection (no deep-cloned snapshot)
// buckets keys per destination peer; each peer then gets a digest read —
// so records it already holds current move no payload — and the records it
// lacks or holds older in batched writes (pushNewer). Peers whose circuit
// breaker is open are skipped before any dial. It returns how many records
// were pushed and how many were dropped locally. A pass that could not
// complete — a peer unreachable, its breaker open, a migrated record
// unconfirmed — re-arms the rebalance flag, so the next tick retries
// instead of stranding records on non-owners until the next membership
// change.
func (n *Node) Rebalance(ctx context.Context) (pushed, dropped int) {
	coll := n.store.C(nwr.RecordCollection)
	self := n.Addr()

	// Bucket the work in one scan. Only keys and, for migrations, the
	// version the scan saw are kept; pushNewer re-reads values a page at a
	// time.
	type migration struct {
		rec    nwr.Record // without its value
		owners []string
	}
	perPeer := map[string][]string{}
	var migrations []migration
	coll.Each(func(doc bson.D) bool {
		rec, err := nwr.RecordFromDoc(doc)
		if err != nil {
			return true
		}
		owners, err := n.ring.Successors(rec.Key, n.cfg.NWR.N)
		if err != nil {
			return true
		}
		selfOwns := false
		for _, o := range owners {
			if o == self {
				selfOwns = true
				break
			}
		}
		if !selfOwns && rec.Strong && n.consensusReplicatesKey(rec.Key) {
			// Consensus replicas hold every log-managed record of their
			// ranges, including keys whose per-key NWR owner set excludes
			// this node. Migrating such a record away and dropping it
			// locally would erase acked strong writes from the replica set;
			// keep it like owned data.
			selfOwns = true
		}
		if selfOwns {
			// Ensure fellow owners hold the record (re-replication after a
			// departure). Reads would repair lazily; this is the proactive
			// path Fig 9 describes.
			for _, o := range owners {
				if o != self {
					perPeer[o] = append(perPeer[o], rec.Key)
				}
			}
			return true
		}
		// The record now belongs elsewhere (a node joined). It goes to every
		// owner; the local copy is dropped once at least one owner confirms.
		rec.Val = nil
		migrations = append(migrations, migration{rec: rec, owners: owners})
		for _, o := range owners {
			perPeer[o] = append(perPeer[o], rec.Key)
		}
		return true
	})

	peers := make([]string, 0, len(perPeer))
	for p := range perPeer {
		peers = append(peers, p)
	}
	sort.Strings(peers) // deterministic movement order under -seed

	incomplete := false
	confirmed := make(map[string]map[string]bool, len(peers))
	for _, peer := range peers {
		if n.peerBreakerOpen(peer) {
			// An open breaker means recent proof the peer is down: skip the
			// dial entirely instead of burning a call into it, and retry
			// after the cool-down.
			incomplete = true
			continue
		}
		got, sent, ok := n.pushNewer(ctx, peer, perPeer[peer])
		pushed += sent
		if !ok {
			incomplete = true
		}
		confirmed[peer] = got
	}

	// Drop migrated records that at least one of their new owners confirmed
	// holding (deletes deferred out of the scan: Each callbacks must not
	// re-enter the collection).
	for _, m := range migrations {
		delivered := false
		for _, o := range m.owners {
			if confirmed[o][m.rec.Key] {
				delivered = true
				break
			}
		}
		if !delivered {
			incomplete = true
			continue
		}
		// A record's _id is its self-key. The owners confirmed the version the
		// scan saw; a newer one written here since stays and migrates on the
		// re-armed pass.
		newer := false
		removed, _ := coll.DeleteIf(m.rec.Key, func(stored bson.D) (bool, error) {
			cur, err := nwr.RecordFromDoc(stored)
			newer = err != nil || cur.Newer(m.rec)
			return !newer, nil
		})
		if removed {
			dropped++
		} else if newer {
			incomplete = true
		}
	}

	if incomplete {
		// Retry, but after a cool-down: an immediate re-arm would make every
		// tick re-scan the whole store while peers are still unreachable,
		// starving the gossip ticks that share the tick loop.
		n.mu.Lock()
		n.rebalanceWanted = true
		n.rebalanceNotBefore = n.cfg.Now().Add(10 * n.cfg.GossipInterval)
		n.mu.Unlock()
	}
	return pushed, dropped
}

// pushPageKeys bounds the keys pushNewer handles at once, so a transfer
// holds at most one page of records in memory whatever the range's size.
const pushPageKeys = 1024

// pushNewer brings peer up to date on the local records of keys, a page at
// a time: a digest read names the versions peer holds, a local read fetches
// ours, and only the records peer lacks or holds older
// (!found || ours.Newer(theirs)) move, in batched writes. A key with no
// local record is skipped. confirmed holds the keys peer is known to hold
// at least as new as the scan's version — it had them, or applied the
// record sent; ok is false if any exchange failed.
func (n *Node) pushNewer(ctx context.Context, peer string, keys []string) (confirmed map[string]bool, sent int, ok bool) {
	confirmed = make(map[string]bool, len(keys))
	for len(keys) > 0 {
		page := keys[:min(len(keys), pushPageKeys)]
		keys = keys[len(page):]
		theirs, err := n.coord.ReadRecords(ctx, peer, page, true)
		if err != nil {
			return confirmed, sent, false
		}
		ours, err := n.coord.ReadRecords(ctx, n.Addr(), page, false)
		if err != nil {
			return confirmed, sent, false
		}
		held := make(map[string]nwr.Record, len(theirs))
		for _, t := range theirs {
			held[t.Key] = t
		}
		var send []nwr.Record
		for _, rec := range ours {
			if t, found := held[rec.Key]; !found || rec.Newer(t) {
				send = append(send, rec)
			} else {
				confirmed[rec.Key] = true
			}
		}
		applied, all := n.coord.WriteRecords(ctx, peer, send)
		sent += applied
		for _, rec := range send[:applied] {
			confirmed[rec.Key] = true
		}
		if !all {
			return confirmed, sent, false
		}
	}
	return confirmed, sent, true
}

// peerBreakerOpen reports whether peer's circuit breaker is currently open.
func (n *Node) peerBreakerOpen(peer string) bool {
	return n.breakers.For(peer).State() == resilience.Open
}
