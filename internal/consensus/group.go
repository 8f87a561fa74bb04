package consensus

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/trace"
	"mystore/internal/wal"
)

// Roles of a group replica.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// maxEntriesPerAppend bounds one append RPC so a far-behind follower is
// caught up in pipelined pages instead of one giant frame.
const maxEntriesPerAppend = 128

// group is one range's replicated log: a Raft-style state machine over the
// range's static replica set, extended with the append-ack lease that backs
// leader-local reads. All mutable state is guarded by mu; RPCs are never
// issued while holding it.
type group struct {
	m     *Manager
	rid   int
	lo    uint32 // range start hash (inclusive)
	hi    uint32 // range end hash (exclusive; 0 wraps)
	peers []string

	mu       sync.Mutex
	term     uint64
	votedFor string
	role     int
	leader   string // last known leader ("" when unknown)

	// Log state. log[0] has index firstIndex; everything at or below
	// snapIdx (= firstIndex-1) was trimmed from memory: it is applied here
	// and its effect lives in the document store.
	log        []Entry
	firstIndex uint64
	snapIdx    uint64
	snapTerm   uint64
	// floor is the highest index every follower holds: on the leader its
	// least match index, on a follower what the leader last sent. Entries
	// above it stay in memory so this replica can feed them if it leads.
	floor uint64
	// markIdx is the snapshot index of the latest compaction marker: replay
	// starts there, and the next marker is due maxLogEntries applies later.
	markIdx uint64

	commitIndex  uint64
	appliedIndex uint64
	applying     bool   // applyLoop is running
	durableIndex uint64 // highest self entry known durable in the WAL
	maxVer       int64  // highest record version in the log (leader-monotonic)

	// Leader bookkeeping.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64
	ackTime    map[string]time.Time // send-time of each peer's latest append ack
	inflight   map[string]bool      // an append RPC loop is running for peer
	snapping   map[string]bool      // a snapshot transfer is running for peer
	leaseUntil time.Time
	noopIndex  uint64 // index of this term's no-op barrier entry
	noopTerm   uint64

	lastHeard        time.Time // last valid leader contact (vote stickiness)
	electionDeadline time.Time
	nextHeartbeat    time.Time

	// Propose waiters by entry index; each is resolved on apply (nil) or on
	// leadership loss (ErrNotLeader — the entry may still commit, so the
	// caller retries idempotently).
	waiters map[uint64]*waiter

	// compactLSN is the WAL position of the latest compaction marker: every
	// record at or after it suffices to rebuild this group, so it is the
	// group's floor for WAL truncation.
	compactLSN wal.LSN
}

type waiter struct {
	term uint64
	ch   chan error
}

func (m *Manager) newGroup(rid int, peers []string) *group {
	lo, hi := RangeBounds(rid, m.opts.Ranges)
	now := m.opts.Now()
	g := &group{
		m: m, rid: rid, lo: lo, hi: hi, peers: peers,
		firstIndex: 1,
		waiters:    map[uint64]*waiter{},
		inflight:   map[string]bool{},
		snapping:   map[string]bool{},
		lastHeard:  now,
	}
	g.electionDeadline = now.Add(m.randTimeout())
	return g
}

func (g *group) majority() int { return len(g.peers)/2 + 1 }

func (g *group) lastIndex() uint64 { return g.firstIndex + uint64(len(g.log)) - 1 }

func (g *group) lastTerm() uint64 { return g.termAt(g.lastIndex()) }

// termAt returns the term of the entry at idx (0 for the empty prefix,
// snapTerm at the snapshot point, 0 when unknown/compacted).
func (g *group) termAt(idx uint64) uint64 {
	switch {
	case idx == 0:
		return 0
	case idx == g.snapIdx:
		return g.snapTerm
	case idx >= g.firstIndex && idx <= g.lastIndex():
		return g.log[idx-g.firstIndex].Term
	default:
		return 0
	}
}

// entryAt returns the in-memory entry at idx (caller checked bounds).
func (g *group) entryAt(idx uint64) Entry { return g.log[idx-g.firstIndex] }

// --- ticking -------------------------------------------------------------

// tick drives one group's timers: follower election timeouts, leader
// heartbeats, the lease step-down, and retrying stalled applies.
func (g *group) tick(now time.Time) {
	g.mu.Lock()
	g.kickApplyLocked()
	switch g.role {
	case roleLeader:
		if now.After(g.leaseUntil) {
			// Lease expired: a majority has not acked within the lease —
			// the other side of a partition may already have elected a new
			// leader. Step down rather than serve possibly-stale reads or
			// accept writes that can never commit.
			g.m.leaseExpiries.Add(1)
			g.stepDownLocked(g.term, "")
			g.mu.Unlock()
			return
		}
		if now.After(g.nextHeartbeat) {
			g.nextHeartbeat = now.Add(g.m.opts.heartbeatInterval())
			g.mu.Unlock()
			g.broadcast()
			return
		}
		g.mu.Unlock()
	default:
		if now.After(g.electionDeadline) {
			g.startElectionLocked(now) // releases mu
			return
		}
		g.mu.Unlock()
	}
}

// --- elections -----------------------------------------------------------

// startElectionLocked begins a new election. Called with mu held; releases
// it before soliciting votes.
func (g *group) startElectionLocked(now time.Time) {
	g.term++
	g.votedFor = g.m.env.Self
	g.role = roleCandidate
	g.leader = ""
	err := g.persistStateLocked()
	g.electionDeadline = now.Add(g.m.randTimeout())
	electionTerm := g.term
	lastIdx, lastTerm := g.lastIndex(), g.lastTerm()
	peers := g.peers
	g.mu.Unlock()
	if err != nil {
		// A self-vote that is not on disk must not be solicited on: after a
		// restart this node could vote again in the same term.
		return
	}
	g.m.elections.Add(1)

	if len(peers) <= 1 {
		g.tryBecomeLeader(electionTerm, 1)
		return
	}
	var voteMu sync.Mutex
	granted := 1 // self
	body := bson.D{
		{Key: "rid", Value: int64(g.rid)},
		{Key: "peers", Value: peersDoc(peers)},
		{Key: "term", Value: int64(electionTerm)},
		{Key: "from", Value: g.m.env.Self},
		{Key: "lastIdx", Value: int64(lastIdx)},
		{Key: "lastTerm", Value: int64(lastTerm)},
	}
	for _, p := range peers {
		if p == g.m.env.Self {
			continue
		}
		peer := p
		g.m.spawn(func(ctx context.Context) {
			ctx, sp := trace.Start(ctx, "cns.election")
			sp.SetPeer(peer)
			// An answer later than one election timeout is useless: by then
			// this node, or another, stands again.
			ctx, cancel := context.WithTimeout(ctx, g.m.opts.ElectionTimeout)
			resp, err := g.m.env.Call(ctx, peer, MsgVote, body)
			cancel()
			sp.End(err)
			if err != nil {
				return
			}
			if t := uint64(int64Or(resp, "term", 0)); t > electionTerm {
				g.mu.Lock()
				// Step down only if the response still beats our current
				// term: a stale response from an old election must not
				// demote a node that has since moved on (or won) at a
				// higher term.
				if t > g.term {
					g.stepDownLocked(t, "")
				}
				g.mu.Unlock()
				return
			}
			if gv, _ := resp.Get("granted"); gv == true {
				voteMu.Lock()
				granted++
				n := granted
				voteMu.Unlock()
				g.tryBecomeLeader(electionTerm, n)
			}
		})
	}
}

// tryBecomeLeader promotes the candidate once votes reach a majority.
func (g *group) tryBecomeLeader(electionTerm uint64, votes int) {
	if votes < g.majority() {
		return
	}
	g.mu.Lock()
	if g.term != electionTerm || g.role != roleCandidate {
		g.mu.Unlock()
		return
	}
	g.role = roleLeader
	g.leader = g.m.env.Self
	now := g.m.opts.Now()
	g.nextIndex = map[string]uint64{}
	g.matchIndex = map[string]uint64{}
	g.ackTime = map[string]time.Time{}
	for _, p := range g.peers {
		g.nextIndex[p] = g.lastIndex() + 1
	}
	// The fresh leader starts with a full lease of one election timeout: a
	// majority voted for it within the last election timeout, so any older
	// leader's lease has expired by now.
	g.leaseUntil = now.Add(g.m.opts.ElectionTimeout)
	g.nextHeartbeat = now
	g.m.electionsWon.Add(1)
	g.m.leaderChanges.Add(1)
	// Commit barrier (Raft §8): a no-op of the new term establishes the
	// commit index before any leader-local read is served.
	lsn, err := g.appendLeaderEntryLocked(Entry{Noop: true})
	if err != nil {
		g.stepDownLocked(g.term, "") // a leader that cannot log cannot lead
		g.mu.Unlock()
		return
	}
	noopIdx := g.lastIndex()
	g.noopIndex = noopIdx
	g.noopTerm = g.term
	g.mu.Unlock()
	g.broadcast()
	g.finishAppend(lsn, noopIdx, electionTerm)
}

// handleVote serves a RequestVote.
func (g *group) handleVote(body bson.D) (bson.D, error) {
	candTerm := uint64(int64Or(body, "term", 0))
	lastIdx := uint64(int64Or(body, "lastIdx", 0))
	lastTerm := uint64(int64Or(body, "lastTerm", 0))
	from := body.StringOr("from", "")
	now := g.m.opts.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if candTerm < g.term {
		return voteReply(g.term, false), nil
	}
	// Leader stickiness: while a live leader has been heard within an
	// election timeout, refuse to elect a challenger — and do NOT adopt its
	// term, or a partitioned node's inflated term would depose a healthy
	// leader on heal. The challenger retries after the leader truly stops.
	if g.leader != "" && g.leader != from &&
		now.Sub(g.lastHeard) < g.m.opts.ElectionTimeout {
		return voteReply(g.term, false), nil
	}
	if candTerm > g.term {
		// Adopt the term but keep our own election deadline: only a vote we
		// grant (below) or a leader's append pushes it back. A candidate
		// whose log is behind ours can never win, and if its requests reset
		// our timer it holds the range leaderless for as long as its
		// timeouts happen to fire before ours.
		deadline, wasLeader := g.electionDeadline, g.role == roleLeader
		g.stepDownLocked(candTerm, "")
		if !wasLeader {
			g.electionDeadline = deadline
		}
	}
	upToDate := lastTerm > g.lastTerm() ||
		(lastTerm == g.lastTerm() && lastIdx >= g.lastIndex())
	grant := (g.votedFor == "" || g.votedFor == from) && upToDate
	if grant {
		g.votedFor = from
		if g.persistStateLocked() != nil {
			// Kept in memory, so no one else gets this term's vote either; but
			// a vote that is not on disk is not given.
			return voteReply(g.term, false), nil
		}
		g.electionDeadline = now.Add(g.m.randTimeout())
	}
	return voteReply(g.term, grant), nil
}

func voteReply(term uint64, granted bool) bson.D {
	return bson.D{{Key: "term", Value: int64(term)}, {Key: "granted", Value: granted}}
}

// stepDownLocked demotes to follower at term (adopting it when higher) and
// fails every propose waiter — their entries may still commit under the next
// leader, so callers retry rather than treat the write as lost.
func (g *group) stepDownLocked(term uint64, leader string) {
	if term > g.term {
		g.term = term
		g.votedFor = ""
		// Best effort: restarting at the older term is safe — no vote was cast
		// in this one, and the first message from it teaches the term again.
		_ = g.persistStateLocked()
	}
	if g.role == roleLeader {
		g.m.leaderChanges.Add(1)
	}
	g.role = roleFollower
	g.leader = leader
	g.electionDeadline = g.m.opts.Now().Add(g.m.randTimeout())
	g.failWaitersLocked()
}

func (g *group) failWaitersLocked() {
	for idx, w := range g.waiters {
		w.ch <- &ErrNotLeader{Leader: g.leader}
		delete(g.waiters, idx)
	}
}

// --- log append (leader side) --------------------------------------------

// appendLeaderEntryLocked assigns the next index (and a monotonic record
// version) to e, appends it, and persists it. Returns the WAL position the
// caller must wait durable before counting self toward the quorum. An entry
// the WAL refused is not appended at all.
func (g *group) appendLeaderEntryLocked(e Entry) (wal.LSN, error) {
	e.Index = g.lastIndex() + 1
	e.Term = g.term
	if !e.Noop {
		v := g.m.opts.Now().UnixNano()
		if v <= g.maxVer {
			v = g.maxVer + 1
		}
		e.Rec.Ver = v
		e.Rec.Origin = g.m.env.Self
		// Mark the record as log-managed: background LWW movers (hint
		// drain, anti-entropy, rebalance) leave _strong records to the
		// replicated log and its snapshot catch-up.
		e.Rec.Strong = true
	}
	lsn, err := g.persistEntryLocked(e)
	if err != nil {
		return 0, err
	}
	if !e.Noop {
		g.maxVer = e.Rec.Ver
	}
	g.log = append(g.log, e)
	return lsn, nil
}

// finishAppend waits the leader's own entry (idx, of term) durable, marks
// self's quorum contribution, and advances the commit index if a majority
// already has it. When the wait fails the leader does not count itself: the
// entry can still commit on the followers alone.
func (g *group) finishAppend(lsn wal.LSN, idx, term uint64) {
	if g.m.log.WaitDurable(lsn) != nil {
		return
	}
	g.mu.Lock()
	g.markDurableLocked(idx, term)
	g.maybeCommitLocked()
	g.mu.Unlock()
}

// markDurableLocked records that this replica's log is on disk through idx,
// unless the entry there is no longer the one (of term) the caller waited for.
func (g *group) markDurableLocked(idx, term uint64) {
	if idx > g.durableIndex && g.termAt(idx) == term {
		g.durableIndex = idx
	}
}

// propose replicates rec through the group's log, returning once the entry
// is committed by a majority and applied locally. The entry goes out to the
// followers before the leader waits for its own WAL (Spinnaker's "send in
// parallel with the log force"), so the fsync between request and ack is the
// slower of the leader's and the second-fastest replica's, not their sum; the
// leader still votes for the entry only once its own copy is durable.
func (g *group) propose(ctx context.Context, rec nwr.Record) (err error) {
	ctx, sp := trace.Start(ctx, "cns.propose")
	start := g.m.opts.Now()
	defer func() {
		g.m.proposeLatency.ObserveDuration(g.m.opts.Now().Sub(start))
		sp.End(err)
	}()
	g.mu.Lock()
	if g.role != roleLeader {
		leader := g.leader
		g.mu.Unlock()
		g.m.notLeaderRejects.Add(1)
		return &ErrNotLeader{Leader: leader}
	}
	g.m.proposals.Add(1)
	lsn, err := g.appendLeaderEntryLocked(Entry{Rec: rec})
	if err != nil {
		g.mu.Unlock()
		return &quorumError{cause: err}
	}
	idx := g.lastIndex()
	w := &waiter{term: g.term, ch: make(chan error, 1)}
	g.waiters[idx] = w
	g.mu.Unlock()

	g.broadcast()
	g.finishAppend(lsn, idx, w.term)

	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		g.mu.Lock()
		delete(g.waiters, idx)
		g.mu.Unlock()
		return &quorumError{cause: ctx.Err()}
	}
}

type quorumError struct{ cause error }

func (e *quorumError) Error() string { return ErrNoQuorum.Error() + ": " + e.cause.Error() }
func (e *quorumError) Unwrap() error { return ErrNoQuorum }

// broadcast starts (or kicks) one append loop per follower.
func (g *group) broadcast() {
	g.mu.Lock()
	if g.role != roleLeader {
		g.mu.Unlock()
		return
	}
	var launch []string
	for _, p := range g.peers {
		if p == g.m.env.Self || g.inflight[p] {
			continue
		}
		g.inflight[p] = true
		launch = append(launch, p)
	}
	g.mu.Unlock()
	for _, p := range launch {
		peer := p
		g.m.spawn(func(ctx context.Context) { g.appendLoop(ctx, peer) })
	}
}

// appendLoop pushes entries (or a heartbeat) at peer until it is current or
// an RPC fails; the next heartbeat re-arms it.
func (g *group) appendLoop(ctx context.Context, peer string) {
	for {
		g.mu.Lock()
		if g.role != roleLeader || g.m.isClosed() {
			g.inflight[peer] = false
			g.mu.Unlock()
			return
		}
		term := g.term
		ni := g.nextIndex[peer]
		if ni < g.firstIndex {
			// The follower needs entries we compacted away: snapshot catch-up.
			g.inflight[peer] = false
			if g.snapping[peer] {
				g.mu.Unlock()
				return
			}
			g.snapping[peer] = true
			g.mu.Unlock()
			g.sendSnapshot(ctx, peer, term)
			return
		}
		prevIdx := ni - 1
		prevTerm := g.termAt(prevIdx)
		var entries bson.A
		last := g.lastIndex()
		for idx := ni; idx <= last && len(entries) < maxEntriesPerAppend; idx++ {
			entries = append(entries, g.entryAt(idx).toDoc())
		}
		sentTo := prevIdx + uint64(len(entries))
		commit := g.commitIndex
		body := bson.D{
			{Key: "rid", Value: int64(g.rid)},
			{Key: "peers", Value: peersDoc(g.peers)},
			{Key: "term", Value: int64(term)},
			{Key: "leader", Value: g.m.env.Self},
			{Key: "prevIdx", Value: int64(prevIdx)},
			{Key: "prevTerm", Value: int64(prevTerm)},
			{Key: "entries", Value: entries},
			{Key: "commit", Value: int64(commit)},
			{Key: "floor", Value: int64(g.floor)},
		}
		g.mu.Unlock()

		sent := g.m.opts.Now()
		actx, sp := trace.Start(ctx, "cns.append")
		sp.SetPeer(peer)
		resp, err := g.m.env.Call(actx, peer, MsgAppend, body)
		sp.End(err)

		g.mu.Lock()
		if err != nil || g.role != roleLeader || g.term != term {
			g.inflight[peer] = false
			g.mu.Unlock()
			return
		}
		if t := uint64(int64Or(resp, "term", 0)); t > g.term {
			g.inflight[peer] = false
			g.stepDownLocked(t, "")
			g.mu.Unlock()
			return
		}
		if ok, _ := resp.Get("ok"); ok == true {
			if sentTo > g.matchIndex[peer] {
				g.matchIndex[peer] = sentTo
			}
			g.nextIndex[peer] = g.matchIndex[peer] + 1
			if prev := g.ackTime[peer]; sent.After(prev) {
				g.ackTime[peer] = sent
			}
			g.recomputeLeaseLocked()
			g.maybeCommitLocked()
			g.trimLocked()
			if g.nextIndex[peer] > g.lastIndex() {
				g.inflight[peer] = false
				g.mu.Unlock()
				return
			}
			g.mu.Unlock()
			continue // more entries pending: keep streaming
		}
		if ns, _ := resp.Get("needSnap"); ns == true {
			g.inflight[peer] = false
			if g.snapping[peer] {
				g.mu.Unlock()
				return
			}
			g.snapping[peer] = true
			g.mu.Unlock()
			g.sendSnapshot(ctx, peer, term)
			return
		}
		// Log mismatch: back up to the follower's conflict hint and retry.
		conflict := uint64(int64Or(resp, "conflict", 0))
		next := ni - 1
		if conflict > 0 && conflict < next {
			next = conflict
		}
		if next < 1 {
			next = 1
		}
		g.nextIndex[peer] = next
		g.mu.Unlock()
	}
}

// recomputeLeaseLocked extends the lease to the majority-th most recent
// append-ack send time plus one election timeout. Times are all
// leader-local, so the lease needs no clock agreement between nodes: at the
// chosen instant a majority had acknowledged this leader, and none of them
// will grant a vote for at least ElectionTimeout after it.
func (g *group) recomputeLeaseLocked() {
	times := []time.Time{g.m.opts.Now()} // self acks implicitly
	for _, p := range g.peers {
		if p == g.m.env.Self {
			continue
		}
		if t, ok := g.ackTime[p]; ok {
			times = append(times, t)
		}
	}
	if len(times) < g.majority() {
		return
	}
	sort.Slice(times, func(i, j int) bool { return times[i].After(times[j]) })
	until := times[g.majority()-1].Add(g.m.opts.ElectionTimeout)
	if until.After(g.leaseUntil) {
		g.leaseUntil = until
	}
}

// maybeCommitLocked advances the commit index to the highest entry a
// majority holds durably, provided it belongs to the current term (Raft
// §5.4.2 — older-term entries commit only transitively).
func (g *group) maybeCommitLocked() {
	if g.role != roleLeader {
		return
	}
	idxs := []uint64{g.durableIndex}
	for _, p := range g.peers {
		if p == g.m.env.Self {
			continue
		}
		idxs = append(idxs, g.matchIndex[p])
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	candidate := idxs[g.majority()-1]
	if candidate > g.commitIndex && g.termAt(candidate) == g.term {
		g.m.commits.Add(int64(candidate - g.commitIndex))
		g.commitIndex = candidate
		g.kickApplyLocked()
	}
}

// kickApplyLocked starts the group's applier unless it is running or has
// nothing to do.
func (g *group) kickApplyLocked() {
	if g.applying || g.appliedIndex >= g.commitIndex {
		return
	}
	g.applying = true
	g.m.spawn(g.applyLoop)
}

// applyLoop is the group's one applier. It applies committed entries to the
// document store in log order — off the append RPC's reply path, and without
// holding mu across the store call, so the next proposal appends meanwhile —
// and resolves each entry's propose waiter once it is applied. Applies ride
// the LWW merge, so re-applying after a crash-replay is a no-op. A failed
// apply (fault injection, disk trouble) ends the loop; the next tick restarts
// it.
func (g *group) applyLoop(ctx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer func() { g.applying = false }()
	for ctx.Err() == nil {
		if g.appliedIndex < g.firstIndex-1 {
			// Compacted below the snapshot point: the store already has it.
			g.appliedIndex = g.firstIndex - 1
		}
		hi := min(g.commitIndex, g.lastIndex())
		if g.appliedIndex >= hi {
			return
		}
		batch := append([]Entry(nil), g.log[g.appliedIndex+1-g.firstIndex:hi+1-g.firstIndex]...)
		g.mu.Unlock()
		done := 0
		var err error
		for _, e := range batch {
			if !e.Noop {
				if err = g.m.env.Apply(ctx, e.Rec); err != nil {
					break
				}
				g.m.applies.Add(1)
			}
			done++
		}
		g.mu.Lock()
		for _, e := range batch[:done] {
			if e.Index > g.appliedIndex { // a snapshot install may have passed us
				g.appliedIndex = e.Index
			}
			if w, ok := g.waiters[e.Index]; ok {
				if w.term == e.Term {
					w.ch <- nil
				} else {
					w.ch <- &ErrNotLeader{Leader: g.leader}
				}
				delete(g.waiters, e.Index)
			}
		}
		if err != nil {
			return
		}
		g.trimLocked()
		g.checkpointLocked()
	}
}

// --- follower side -------------------------------------------------------

// handleAppend serves replication and heartbeats.
func (g *group) handleAppend(body bson.D) (bson.D, error) {
	term := uint64(int64Or(body, "term", 0))
	leader := body.StringOr("leader", "")
	prevIdx := uint64(int64Or(body, "prevIdx", 0))
	prevTerm := uint64(int64Or(body, "prevTerm", 0))
	commit := uint64(int64Or(body, "commit", 0))
	floor := uint64(int64Or(body, "floor", 0))

	g.mu.Lock()
	if term < g.term {
		// Stale-term append: a deposed leader that has not heard the news.
		g.m.staleTermRejects.Add(1)
		reply := bson.D{{Key: "term", Value: int64(g.term)}, {Key: "ok", Value: false}}
		g.mu.Unlock()
		return reply, nil
	}
	if term > g.term || g.role != roleFollower {
		g.stepDownLocked(term, leader)
	}
	g.leader = leader
	now := g.m.opts.Now()
	g.lastHeard = now
	g.electionDeadline = now.Add(g.m.randTimeout())

	// Log-matching check.
	if prevIdx > 0 && prevIdx < g.snapIdx {
		// We compacted past prevIdx; our state already covers it. Report our
		// snapshot point so the leader resumes above it.
		reply := bson.D{
			{Key: "term", Value: int64(g.term)},
			{Key: "ok", Value: false},
			{Key: "conflict", Value: int64(g.snapIdx + 1)},
		}
		g.mu.Unlock()
		return reply, nil
	}
	if prevIdx > g.lastIndex() {
		reply := bson.D{
			{Key: "term", Value: int64(g.term)},
			{Key: "ok", Value: false},
			{Key: "conflict", Value: int64(g.lastIndex() + 1)},
		}
		g.mu.Unlock()
		return reply, nil
	}
	if prevIdx > 0 && g.termAt(prevIdx) != prevTerm {
		if prevIdx < g.firstIndex {
			// Can't verify below our log horizon: need a snapshot.
			reply := bson.D{
				{Key: "term", Value: int64(g.term)},
				{Key: "ok", Value: false},
				{Key: "needSnap", Value: true},
			}
			g.mu.Unlock()
			return reply, nil
		}
		// Conflicting entry: drop it and everything after, then report the
		// conflict point so the leader backs up.
		g.truncateFromLocked(prevIdx)
		reply := bson.D{
			{Key: "term", Value: int64(g.term)},
			{Key: "ok", Value: false},
			{Key: "conflict", Value: int64(prevIdx)},
		}
		g.mu.Unlock()
		return reply, nil
	}

	// Append new entries, overwriting any conflicting suffix. lastCovered
	// tracks the highest index this RPC verified: prevIdx (checked by the
	// log-matching test above) plus every entry matched in place or appended.
	var maxLSN wal.LSN
	var logErr error
	lastCovered := prevIdx
	if v, ok := body.Get("entries"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, ev := range arr {
				d, isDoc := ev.(bson.D)
				if !isDoc {
					continue
				}
				e, err := entryFromDoc(d)
				if err != nil {
					continue
				}
				if e.Index <= g.lastIndex() {
					if g.termAt(e.Index) == e.Term {
						lastCovered = e.Index
						continue // already have it
					}
					g.truncateFromLocked(e.Index)
				}
				if e.Index != g.lastIndex()+1 {
					break // gap; leader will back up
				}
				// An entry the WAL refused stays out of memory too, or the
				// leader's retry would find it "already here" and be acked.
				if maxLSN, logErr = g.persistEntryLocked(e); logErr != nil {
					break
				}
				g.log = append(g.log, e)
				if !e.Noop && e.Rec.Ver > g.maxVer {
					g.maxVer = e.Rec.Ver
				}
				lastCovered = e.Index
			}
		}
	}
	// Durability before ack: the leader counts this follower toward the commit
	// quorum on our reply, so every covered entry not yet known durable —
	// appended just now, or matched in memory after an earlier wait failed —
	// is waited for, and a failure answers with an error, not an ack.
	unsynced := lastCovered > g.durableIndex
	if unsynced && maxLSN == 0 {
		maxLSN = g.m.logEnd()
	}
	coveredTerm := g.termAt(lastCovered)
	matched := g.lastIndex()
	g.mu.Unlock()

	if logErr == nil && unsynced {
		logErr = g.m.log.WaitDurable(maxLSN)
	}
	if logErr != nil {
		return nil, fmt.Errorf("cns: append to the log of %s: %w", g.m.env.Self, logErr)
	}

	g.mu.Lock()
	g.markDurableLocked(lastCovered, coveredTerm)
	if commit > g.commitIndex {
		// Raft's "index of last new entry" rule: advance the commit index
		// only through the prefix this RPC verified. Capping at our own
		// lastIndex instead could commit a divergent, never-verified suffix
		// (stale-term entries beyond the append window, or a suffix retained
		// across a snapshot install).
		c := commit
		if c > lastCovered {
			c = lastCovered
		}
		if c > g.commitIndex {
			g.commitIndex = c
		}
	}
	// Committed entries are applied by the group's applier, after this reply:
	// the leader's quorum waits for our log, not for our store.
	g.kickApplyLocked()
	g.floor = floor
	g.trimLocked()
	g.mu.Unlock()
	return bson.D{
		{Key: "term", Value: int64(term)},
		{Key: "ok", Value: true},
		{Key: "match", Value: int64(matched)},
	}, nil
}

// truncateFromLocked drops log entries at idx and above (a conflicting
// suffix from a deposed leader) and persists the cut.
func (g *group) truncateFromLocked(idx uint64) {
	if idx < g.firstIndex || idx > g.lastIndex() {
		return
	}
	g.log = g.log[:idx-g.firstIndex]
	if g.durableIndex >= idx {
		g.durableIndex = idx - 1
	}
	// Best effort: a cut that does not reach disk leaves an uncommitted suffix
	// for the next replay, which the next leader's appends overwrite again.
	_, _ = g.m.persist(bson.D{
		{Key: "t", Value: "x"},
		{Key: "rid", Value: int64(g.rid)},
		{Key: "from", Value: int64(idx)},
	})
}

// --- snapshot catch-up ---------------------------------------------------

// sendSnapshot streams the whole range's records to peer (Env.StreamRange),
// then installs the snapshot marker. Resumable by construction: every
// batch merges LWW on the receiver and is acked only once all of it
// applied, so a crash mid-transfer (either side) just re-streams on the
// next attempt.
func (g *group) sendSnapshot(ctx context.Context, peer string, term uint64) {
	defer func() {
		g.mu.Lock()
		g.snapping[peer] = false
		g.mu.Unlock()
	}()
	g.mu.Lock()
	snapIdx, snapTerm, maxVer := g.snapIdx, g.snapTerm, g.maxVer
	lo, hi := g.lo, g.hi
	g.mu.Unlock()
	g.m.snapshotsSent.Add(1)
	sctx, sp := trace.Start(ctx, "cns.snapshot")
	sp.SetPeer(peer)
	if g.m.env.StreamRange != nil && !g.m.env.StreamRange(sctx, peer, lo, hi) {
		sp.End(ErrNoQuorum)
		return
	}
	resp, err := g.m.env.Call(sctx, peer, MsgSnapshot, bson.D{
		{Key: "rid", Value: int64(g.rid)},
		{Key: "peers", Value: peersDoc(g.peers)},
		{Key: "term", Value: int64(term)},
		{Key: "leader", Value: g.m.env.Self},
		{Key: "snapIdx", Value: int64(snapIdx)},
		{Key: "snapTerm", Value: int64(snapTerm)},
		{Key: "maxVer", Value: maxVer},
	})
	sp.End(err)
	if err != nil {
		return
	}
	g.mu.Lock()
	if g.role == roleLeader && g.term == term {
		if t := uint64(int64Or(resp, "term", 0)); t > g.term {
			g.stepDownLocked(t, "")
		} else if snapIdx+1 > g.nextIndex[peer] {
			g.nextIndex[peer] = snapIdx + 1
			if snapIdx > g.matchIndex[peer] {
				g.matchIndex[peer] = snapIdx
			}
		}
	}
	g.mu.Unlock()
	g.broadcast()
}

// handleSnapshot installs a snapshot marker: the leader has already
// streamed the range's records into our store.
func (g *group) handleSnapshot(body bson.D) (bson.D, error) {
	term := uint64(int64Or(body, "term", 0))
	leader := body.StringOr("leader", "")
	snapIdx := uint64(int64Or(body, "snapIdx", 0))
	snapTerm := uint64(int64Or(body, "snapTerm", 0))
	g.mu.Lock()
	defer g.mu.Unlock()
	if term < g.term {
		g.m.staleTermRejects.Add(1)
		return bson.D{{Key: "term", Value: int64(g.term)}, {Key: "ok", Value: false}}, nil
	}
	if term > g.term || g.role != roleFollower {
		g.stepDownLocked(term, leader)
	}
	g.leader = leader
	now := g.m.opts.Now()
	g.lastHeard = now
	g.electionDeadline = now.Add(g.m.randTimeout())
	// The streamed records carry the leader's versions: a later entry this
	// replica stamps must not fall below them, whatever its clock says.
	g.maxVer = max(g.maxVer, int64Or(body, "maxVer", 0))
	if snapIdx > g.snapIdx {
		// The marker below promises the store holds everything through
		// snapIdx. The streamed records are durable; entries this replica
		// applied itself may not be yet.
		if err := g.m.syncApplied(); err != nil {
			return nil, err
		}
		if snapIdx >= g.lastIndex() || g.termAt(snapIdx) != snapTerm {
			g.log = nil
		} else {
			g.log = append([]Entry(nil), g.log[snapIdx+1-g.firstIndex:]...)
		}
		g.snapIdx, g.snapTerm = snapIdx, snapTerm
		g.firstIndex = snapIdx + 1
		if snapIdx > g.commitIndex {
			g.commitIndex = snapIdx
		}
		if snapIdx > g.appliedIndex {
			g.appliedIndex = snapIdx
		}
		g.persistCompactionLocked()
		g.m.snapshotsInstalled.Add(1)
	}
	return bson.D{{Key: "term", Value: int64(g.term)}, {Key: "ok", Value: true}}, nil
}

// --- compaction ----------------------------------------------------------

// trimLocked drops from memory the log prefix no replica needs from this one
// any more: applied here and held by every follower (floor). A follower that
// stops acking pins at most maxLogEntries entries; past that the trim goes to
// appliedIndex and that follower catches up by snapshot. Memory only: the WAL
// keeps the entries until the next compaction marker. The dropped slots are
// cleared, or the backing array would keep their payloads reachable.
func (g *group) trimLocked() {
	if g.role == roleLeader {
		g.floor = g.lastIndex()
		for _, p := range g.peers {
			if p != g.m.env.Self {
				g.floor = min(g.floor, g.matchIndex[p])
			}
		}
	}
	upto := max(min(g.appliedIndex, g.floor), g.snapIdx)
	if g.lastIndex()-upto > uint64(g.m.opts.maxLogEntries) {
		upto = g.appliedIndex
	}
	if upto <= g.snapIdx {
		return
	}
	k := upto - g.snapIdx
	g.snapTerm = g.termAt(upto)
	clear(g.log[:k])
	g.log = g.log[k:]
	g.snapIdx, g.firstIndex = upto, upto+1
}

// checkpointLocked writes a compaction marker at the trim point once
// maxLogEntries entries have applied since the last one. The document store
// is the snapshot; the WAL keeps the marker (plus the in-memory tail,
// re-appended) so replay can start from it and the segments before it become
// removable. A marker is a promise that the store holds everything at or
// below it, and applies do not wait for the store's own fsync — so the store
// is synced first, with mu released (the applier is the caller; nothing else
// moves appliedIndex, except a snapshot install, which writes its own marker
// and is checked for).
func (g *group) checkpointLocked() {
	if g.appliedIndex < g.markIdx+uint64(g.m.opts.maxLogEntries) {
		return
	}
	upto := g.appliedIndex
	g.mu.Unlock()
	err := g.m.syncApplied()
	g.mu.Lock()
	if err != nil || g.snapIdx > upto {
		return // keep the old marker: the store is not durable, or a snapshot overtook us
	}
	g.persistCompactionLocked()
}

// persistCompactionLocked writes the compaction marker plus the retained
// tail; everything before the marker's LSN is no longer needed for this
// group — provided all of it was written, or replay keeps its older floor.
// markIdx moves either way, so the cadence holds.
func (g *group) persistCompactionLocked() {
	lsn, err := g.m.persist(bson.D{
		{Key: "t", Value: "c"},
		{Key: "rid", Value: int64(g.rid)},
		{Key: "snapIdx", Value: int64(g.snapIdx)},
		{Key: "snapTerm", Value: int64(g.snapTerm)},
		{Key: "term", Value: int64(g.term)},
		{Key: "vote", Value: g.votedFor},
		{Key: "peers", Value: peersDoc(g.peers)},
		{Key: "maxVer", Value: g.maxVer},
	})
	for _, e := range g.log {
		if _, perr := g.persistEntryLocked(e); err == nil {
			err = perr
		}
	}
	g.markIdx = g.snapIdx
	if err == nil {
		g.compactLSN = lsn
	}
}

// --- reads ---------------------------------------------------------------

// leaderRead checks this replica may serve a strong read right now: it is
// the leader, its lease is live, and this term's no-op barrier has applied
// (so the commit index is known current). Harmonia/Spinnaker's leader-local
// read: no quorum round-trip.
func (g *group) leaderRead() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != roleLeader {
		g.m.notLeaderRejects.Add(1)
		return &ErrNotLeader{Leader: g.leader}
	}
	if g.m.opts.Now().After(g.leaseUntil) {
		g.m.notLeaderRejects.Add(1)
		return &ErrNotLeader{}
	}
	if g.noopTerm != g.term || g.appliedIndex < g.noopIndex {
		return ErrNoQuorum // barrier not applied yet; caller retries briefly
	}
	return nil
}

// --- persistence ---------------------------------------------------------

// persistStateLocked makes (term, votedFor) durable before it is acted on;
// voting twice in a term after a restart would break election safety.
func (g *group) persistStateLocked() error {
	lsn, err := g.m.persist(bson.D{
		{Key: "t", Value: "s"},
		{Key: "rid", Value: int64(g.rid)},
		{Key: "term", Value: int64(g.term)},
		{Key: "vote", Value: g.votedFor},
	})
	if err != nil {
		return err
	}
	return g.m.log.WaitDurable(lsn)
}

func (g *group) persistEntryLocked(e Entry) (wal.LSN, error) {
	doc := bson.D{
		{Key: "t", Value: "e"},
		{Key: "rid", Value: int64(g.rid)},
	}
	doc = append(doc, e.toDoc()...)
	return g.m.persist(doc)
}

// walFloor is the earliest WAL position still needed to rebuild this group.
func (g *group) walFloor() wal.LSN {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.compactLSN
}

// --- helpers -------------------------------------------------------------

// checkPeers rejects a replica set that diverges from the one this group was
// created (and persisted) with. Replica sets are pinned at creation until
// reconfiguration lands, so after a ring change different nodes could hold
// the same range with non-overlapping majorities; set inequality fails
// loudly here instead of silently forming a split quorum. Order-insensitive:
// both sides derive from the same ring walk, but set membership is the
// invariant that matters. g.peers is immutable, so no lock is needed.
func (g *group) checkPeers(peers []string) error {
	if len(peers) != len(g.peers) {
		return ErrPeerMismatch
	}
	for _, p := range peers {
		found := false
		for _, q := range g.peers {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return ErrPeerMismatch
		}
	}
	return nil
}

func peersDoc(peers []string) bson.A {
	out := make(bson.A, len(peers))
	for i, p := range peers {
		out[i] = p
	}
	return out
}

func int64Or(d bson.D, key string, def int64) int64 {
	v, ok := d.Get(key)
	if !ok {
		return def
	}
	i, isInt := v.(int64)
	if !isInt {
		return def
	}
	return i
}
