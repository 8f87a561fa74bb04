// Package consensus adds a CP replication tier beside MyStore's AP quorum
// path: a per-ring-range replicated log in the style of Raft (randomized
// elections, term-fenced append/commit, majority quorums) extended with
// leader leases for local strong reads (Spinnaker's timeline reads,
// Harmonia's leader-local shortcut).
//
// The 32-bit ring-hash space is cut into Options.Ranges equal ranges; each
// range is replicated by the first ReplicationFactor distinct physical
// nodes clockwise from the range's start position — the same walk NWR uses
// for keys, so a range's consensus replicas are exactly the NWR owners of
// its first key. Each range runs an independent replicated log ("group"):
// strong writes are proposed on the leader, appended under the current
// term, and acknowledged only after a majority has the entry durably logged
// and the leader has applied it to the document store. Committed entries
// carry leader-assigned monotonic versions, so applying them rides the
// existing last-write-wins merge and is idempotent across crash-replay.
//
// The log is WAL-backed: one shared wal.Log per node. Followers that fall
// behind the log's compaction horizon catch up by snapshot: the leader
// streams the whole range's records over the cluster's bulk-transfer path
// (idempotent, resumable) and then installs a snapshot marker.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
)

// Message types the cluster mux routes here (prefix "cns.").
const (
	// MsgVote is a RequestVote: a candidate solicits one range's replicas.
	MsgVote = "cns.vote"
	// MsgAppend replicates log entries and doubles as the leader heartbeat.
	MsgAppend = "cns.append"
	// MsgSnapshot installs a snapshot marker after the leader has streamed
	// the range's records to a follower that fell behind the log horizon.
	MsgSnapshot = "cns.snapshot"
)

// notLeaderMarker is the wire text ErrNotLeader travels as inside a
// transport.RemoteError; ParseNotLeader recovers the leader hint from it.
const notLeaderMarker = "cns: not leader"

// ErrNotLeader reports that this node cannot serve a strong operation for
// the range; Leader, when known, hints where to retry.
type ErrNotLeader struct {
	Leader string
}

func (e *ErrNotLeader) Error() string {
	if e.Leader == "" {
		return notLeaderMarker
	}
	return fmt.Sprintf("%s; leader=%s", notLeaderMarker, e.Leader)
}

// ParseNotLeader recognizes a (possibly remote-wrapped) not-leader error by
// its wire text and extracts the leader hint ("" when the rejecting node
// knew no leader). The cluster client uses it to redirect strong calls.
func ParseNotLeader(err error) (leader string, ok bool) {
	if err == nil {
		return "", false
	}
	text := err.Error()
	i := strings.Index(text, notLeaderMarker)
	if i < 0 {
		return "", false
	}
	rest := text[i+len(notLeaderMarker):]
	if j := strings.Index(rest, "leader="); j >= 0 {
		leader = rest[j+len("leader="):]
		if k := strings.IndexAny(leader, " ;,\n"); k >= 0 {
			leader = leader[:k]
		}
	}
	return leader, true
}

// Errors besides ErrNotLeader.
var (
	// ErrDisabled means the node runs without a consensus tier.
	ErrDisabled = errors.New("cns: strong consistency disabled")
	// ErrClosed means the manager has shut down.
	ErrClosed = errors.New("cns: manager closed")
	// ErrNoQuorum means a proposal could not reach a durable majority in
	// time (the caller must not treat the write as applied OR as dropped —
	// it may still commit).
	ErrNoQuorum = errors.New("cns: no quorum")
	// ErrNotReplica means this node is not in the range's replica set.
	ErrNotReplica = errors.New("cns: not a replica of this range")
	// ErrPeerMismatch means an incoming RPC carried a replica set that
	// diverges from the one this group was created (and persisted) with —
	// the ring changed under a pinned group. Divergent views could form
	// non-overlapping majorities, so they are rejected loudly until
	// reconfiguration exists.
	ErrPeerMismatch = errors.New("cns: replica set mismatch for range")
	// ErrRingNotReady means the membership view is too small to derive the
	// range's replica set yet.
	ErrRingNotReady = errors.New("cns: ring smaller than replication factor")
	// ErrNotFound is returned by strong reads of absent or deleted keys.
	ErrNotFound = errors.New("cns: key not found")
)

// Entry is one replicated log record. A nil-key entry is the no-op a fresh
// leader commits to establish its commit index (Raft §8) before serving
// leader-local reads.
type Entry struct {
	Index uint64
	Term  uint64
	Rec   nwr.Record
	Noop  bool
}

func (e Entry) toDoc() bson.D {
	d := bson.D{
		{Key: "idx", Value: int64(e.Index)},
		{Key: "term", Value: int64(e.Term)},
	}
	if e.Noop {
		d = append(d, bson.E{Key: "noop", Value: "1"})
	} else {
		d = append(d, bson.E{Key: "rec", Value: e.Rec.ToDoc()})
	}
	return d
}

func entryFromDoc(d bson.D) (Entry, error) {
	e := Entry{}
	iv, _ := d.Get("idx")
	idx, ok := iv.(int64)
	if !ok {
		return e, errors.New("cns: entry missing idx")
	}
	tv, _ := d.Get("term")
	term, ok := tv.(int64)
	if !ok {
		return e, errors.New("cns: entry missing term")
	}
	e.Index, e.Term = uint64(idx), uint64(term)
	if d.StringOr("noop", "0") == "1" {
		e.Noop = true
		return e, nil
	}
	rv, _ := d.Get("rec")
	rd, isDoc := rv.(bson.D)
	if !isDoc {
		return e, errors.New("cns: entry missing rec")
	}
	rec, err := nwr.RecordFromDoc(rd)
	if err != nil {
		return e, err
	}
	e.Rec = rec
	return e, nil
}

// Options tune the consensus tier.
type Options struct {
	// Ranges is how many equal hash ranges the ring is cut into, each with
	// its own replicated log. Default 8.
	Ranges int
	// ReplicationFactor is the replica count per range; the cluster passes
	// its NWR N. Default 3.
	ReplicationFactor int
	// ElectionTimeout is the base follower timeout; actual timeouts are
	// randomized in [ElectionTimeout, 2*ElectionTimeout) from Seed. Default
	// 150ms. Leaders heartbeat three times per timeout, and a majority of
	// append acks lets a leader serve reads locally for one timeout without
	// re-proving leadership: a new leader cannot be elected while a live old
	// leader still believes its lease, because followers refuse votes while
	// they hear a leader.
	ElectionTimeout time.Duration
	// WALDir is the directory of the consensus log. Required.
	WALDir string
	// SyncEveryAppend makes log appends durable before they count toward
	// quorum (matching the store's durability setting).
	SyncEveryAppend bool
	// Seed seeds the randomized election timeouts (0 = process entropy).
	Seed int64
	// Now injects a clock for deterministic tests.
	Now func() time.Time

	// maxLogEntries bounds how many entries a follower that stops acking
	// keeps in each group's in-memory log (past it, the follower catches up
	// by snapshot), and spaces the WAL's compaction markers: one per
	// maxLogEntries applied entries. Default 1024; only this package's tests
	// lower it.
	maxLogEntries int
}

func (o Options) withDefaults() Options {
	if o.Ranges <= 0 {
		o.Ranges = 8
	}
	if o.ReplicationFactor <= 0 {
		o.ReplicationFactor = 3
	}
	if o.ElectionTimeout <= 0 {
		o.ElectionTimeout = 150 * time.Millisecond
	}
	if o.maxLogEntries <= 0 {
		o.maxLogEntries = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// heartbeatInterval spaces leader heartbeats: three per election timeout.
func (o Options) heartbeatInterval() time.Duration { return o.ElectionTimeout / 3 }

// RangeOf maps a ring hash to its range id under the given range count.
func RangeOf(h uint32, ranges int) int {
	return int(uint64(h) * uint64(ranges) >> 32)
}

// RangeBounds returns [lo, hi) for range rid; hi == 0 means wrap (the top
// of the 32-bit space) for the last range.
func RangeBounds(rid, ranges int) (lo, hi uint32) {
	lo = uint32(uint64(rid) << 32 / uint64(ranges))
	if rid == ranges-1 {
		return lo, 0
	}
	return lo, uint32(uint64(rid+1) << 32 / uint64(ranges))
}

// Env is the cluster's side of the contract: every closure the manager
// needs to talk to peers, the local store, and the membership view. All
// RPCs go through Call, which the cluster wires straight to its transport:
// bounded by the replica call timeout (the manager bounds a vote by one
// election timeout), its outcome reported to the peer view, and never
// refused by it.
type Env struct {
	// Self is this node's address.
	Self string
	// Call performs one RPC to target.
	Call func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error)
	// Apply merges one committed record into the local store (LWW merge,
	// idempotent across replay). It need not be durable on return: the entry
	// stays in the consensus log, and is re-applied from it after a crash,
	// until SyncApplied has covered it.
	Apply func(ctx context.Context, rec nwr.Record) error
	// SyncApplied returns once every Apply that has returned is durable in
	// the local store. The manager calls it before a compaction or snapshot
	// marker lets go of the log prefix those applies came from. nil means
	// Apply is durable on return.
	SyncApplied func() error
	// Read fetches a key's record from the local store.
	Read func(key string) (nwr.Record, bool, error)
	// Replicas derives the replica set for a range from its start hash
	// (the ring walk). It must fail while the membership view holds fewer
	// than ReplicationFactor nodes.
	Replicas func(lo uint32) ([]string, error)
	// StreamRange bulk-transfers every local record whose key hashes into
	// [lo, hi) to target (hi==0 wraps), reporting full delivery. Used for
	// snapshot catch-up; nil disables snapshots (followers must replay the
	// whole log).
	StreamRange func(ctx context.Context, target string, lo, hi uint32) bool
}
