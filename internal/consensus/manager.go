package consensus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/metrics"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/trace"
	"mystore/internal/wal"
)

// Manager owns every consensus group this node replicates, the shared WAL
// behind their logs, and the ticker that drives elections, heartbeats, and
// lease step-downs. Groups are created lazily: from the first strong
// operation touching a range this node replicates, or from the first
// incoming consensus RPC (whose body carries the range's replica set).
type Manager struct {
	opts Options
	env  Env
	log  *wal.Log
	// truncatedTo is the last floor passed to log.TruncateBefore; only the
	// tick loop touches it.
	truncatedTo wal.LSN
	encMu       sync.Mutex
	encBuf      []byte // persist's record encoding, reused

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	groups map[int]*group
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// Stats counters (see Stats).
	elections          atomic.Int64
	electionsWon       atomic.Int64
	leaderChanges      atomic.Int64
	proposals          atomic.Int64
	commits            atomic.Int64
	applies            atomic.Int64
	notLeaderRejects   atomic.Int64
	leaseExpiries      atomic.Int64
	staleTermRejects   atomic.Int64
	snapshotsSent      atomic.Int64
	snapshotsInstalled atomic.Int64
	strongReads        atomic.Int64

	proposeLatency *metrics.BucketedHistogram
}

// NewManager opens (and replays) the consensus WAL and starts the tick loop.
func NewManager(opts Options, env Env) (*Manager, error) {
	if opts.WALDir == "" {
		return nil, errors.New("cns: WALDir is required")
	}
	opts = opts.withDefaults()
	m := &Manager{
		opts:           opts,
		env:            env,
		groups:         map[int]*group{},
		proposeLatency: metrics.NewBucketedHistogram(nil),
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	m.rng = rand.New(rand.NewSource(seed))
	m.baseCtx, m.cancel = context.WithCancel(context.Background())
	log, err := wal.Open(opts.WALDir, wal.Options{
		SyncEveryAppend: opts.SyncEveryAppend,
	})
	if err != nil {
		return nil, err
	}
	m.log = log
	if err := m.replay(); err != nil {
		log.Close()
		return nil, err
	}
	m.finishReplay()
	m.wg.Add(1)
	go m.tickLoop()
	return m, nil
}

// randTimeout draws an election timeout in [ET, 2*ET).
func (m *Manager) randTimeout() time.Duration {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	et := m.opts.ElectionTimeout
	return et + time.Duration(m.rng.Int63n(int64(et)))
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// spawn runs fn on the manager's base context, tracked for Close.
func (m *Manager) spawn(fn func(ctx context.Context)) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		fn(m.baseCtx)
	}()
}

// tickLoop drives every group's timers. It runs at half the heartbeat
// interval — the cluster's gossip tick is far too coarse for sub-200ms
// election timeouts.
func (m *Manager) tickLoop() {
	defer m.wg.Done()
	period := m.opts.heartbeatInterval() / 2
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case now := <-t.C:
			for _, g := range m.groupList() {
				g.tick(now)
			}
			m.truncateWAL()
		}
	}
}

func (m *Manager) groupList() []*group {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*group, 0, len(m.groups))
	for _, g := range m.groups {
		out = append(out, g)
	}
	return out
}

// --- group lookup / creation ---------------------------------------------

// groupForKey finds or creates the group replicating key's range. Returns
// ErrNotLeader with a replica hint when this node is not in the replica set.
func (m *Manager) groupForKey(key string) (*group, error) {
	rid := RangeOf(ring.Hash(key), m.opts.Ranges)
	return m.groupFor(rid, nil)
}

// groupFor returns the group for rid, creating it when this node belongs to
// the replica set. peers, when non-nil, is the authoritative set from an
// incoming RPC; otherwise it is derived from the ring walk.
func (m *Manager) groupFor(rid int, peers []string) (*group, error) {
	fromRPC := peers != nil
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if g, ok := m.groups[rid]; ok {
		m.mu.Unlock()
		if fromRPC {
			if err := g.checkPeers(peers); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	m.mu.Unlock()

	if peers == nil {
		lo, _ := RangeBounds(rid, m.opts.Ranges)
		got, err := m.env.Replicas(lo)
		if err != nil {
			return nil, err
		}
		if len(got) < m.opts.ReplicationFactor {
			return nil, ErrRingNotReady
		}
		peers = got[:m.opts.ReplicationFactor]
	}
	self := false
	for _, p := range peers {
		if p == m.env.Self {
			self = true
			break
		}
	}
	if !self {
		// Not a replica: point the caller at the range's first replica, the
		// most likely leader.
		hint := ""
		if len(peers) > 0 {
			hint = peers[0]
		}
		m.notLeaderRejects.Add(1)
		return nil, &ErrNotLeader{Leader: hint}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if g, ok := m.groups[rid]; ok {
		if fromRPC {
			if err := g.checkPeers(peers); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	g := m.newGroup(rid, peers)
	m.groups[rid] = g
	// Group creation is durable before first use so a restarted node
	// recreates its groups (and the rebalance guard over their ranges)
	// from replay alone.
	lsn, err := m.persist(bson.D{
		{Key: "t", Value: "p"},
		{Key: "rid", Value: int64(rid)},
		{Key: "peers", Value: peersDoc(peers)},
	})
	if err == nil {
		err = m.log.WaitDurable(lsn)
	}
	if err != nil {
		delete(m.groups, rid)
		return nil, fmt.Errorf("cns: create group %d: %w", rid, err)
	}
	g.compactLSN = lsn
	return g, nil
}

// --- strong operations ----------------------------------------------------

// Put proposes a strong write and returns once a majority has it durably
// logged and it is applied locally.
func (m *Manager) Put(ctx context.Context, key string, val []byte, isData bool) error {
	return m.propose(ctx, nwr.Record{Key: key, Val: val, IsData: isData})
}

// Delete proposes a strong delete (a replicated tombstone).
func (m *Manager) Delete(ctx context.Context, key string) error {
	return m.propose(ctx, nwr.Record{Key: key, Deleted: true})
}

func (m *Manager) propose(ctx context.Context, rec nwr.Record) error {
	g, err := m.groupForKey(rec.Key)
	if err != nil {
		return err
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 10*m.opts.ElectionTimeout)
		defer cancel()
	}
	for {
		err = g.propose(ctx, rec)
		var nl *ErrNotLeader
		if !errors.As(err, &nl) || nl.Leader != "" {
			// Success, a hard failure, or a redirectable rejection: the
			// caller (or the client's redirect hop) takes it from here.
			return err
		}
		// Leaderless window — a just-created group or an election in
		// flight. The proposer is a replica of this range, so a leader is
		// due within an election timeout or two; ride it out instead of
		// bouncing the client into blind retries.
		select {
		case <-ctx.Done():
			return err
		case <-time.After(m.opts.ElectionTimeout / 10):
		}
	}
}

// Get serves a strong read: leader-local under a live lease, after this
// term's no-op barrier has applied (Raft §8) — no quorum round-trip. A
// leader whose barrier is still in flight is retried briefly rather than
// bounced, since the window is one commit round.
func (m *Manager) Get(ctx context.Context, key string) (nwr.Record, error) {
	g, err := m.groupForKey(key)
	if err != nil {
		return nwr.Record{}, err
	}
	ctx, sp := trace.Start(ctx, "cns.read")
	deadline := m.opts.Now().Add(2 * m.opts.ElectionTimeout)
	for {
		err = g.leaderRead()
		if err == nil {
			break
		}
		// Two transient states are waited out rather than bounced: the
		// no-op barrier still committing (ErrNoQuorum) and a leaderless
		// election window (ErrNotLeader without a hint).
		var nl *ErrNotLeader
		retryable := err == ErrNoQuorum || (errors.As(err, &nl) && nl.Leader == "")
		if !retryable || m.opts.Now().After(deadline) {
			sp.End(err)
			return nwr.Record{}, err
		}
		select {
		case <-ctx.Done():
			sp.End(ctx.Err())
			return nwr.Record{}, &quorumError{cause: ctx.Err()}
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.strongReads.Add(1)
	rec, found, err := m.env.Read(key)
	if err == nil {
		// Re-verify the lease now that the read has completed: if this
		// goroutine stalled past leaseUntil mid-read, a new leader may have
		// committed a write elsewhere and the value above could be stale.
		if lerr := g.leaderRead(); lerr != nil {
			err = lerr
		}
	}
	sp.End(err)
	if err != nil {
		return nwr.Record{}, err
	}
	if !found || rec.Deleted {
		return nwr.Record{}, ErrNotFound
	}
	return rec, nil
}

// --- guards for the eventual tier ----------------------------------------

// GuardKey reports whether background LWW paths (anti-entropy, hint drain)
// must leave key alone right now: its range has a consensus group whose
// leader is some other node, so pushing LWW writes would race the log.
func (m *Manager) GuardKey(key string) bool {
	m.mu.Lock()
	g, ok := m.groups[RangeOf(ring.Hash(key), m.opts.Ranges)]
	m.mu.Unlock()
	if !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader != "" && g.leader != m.env.Self
}

// ReplicatesKey reports whether this node is a consensus replica for key's
// range. Rebalance must never migrate away (then locally drop) records in
// such ranges: consensus replicas hold records whose per-key NWR owner sets
// may not include this node.
func (m *Manager) ReplicatesKey(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.groups[RangeOf(ring.Hash(key), m.opts.Ranges)]
	return ok
}

// LeadsKey reports whether this node currently leads key's range (tests and
// the chaos harness use it to aim kills at leaders).
func (m *Manager) LeadsKey(key string) bool {
	m.mu.Lock()
	g, ok := m.groups[RangeOf(ring.Hash(key), m.opts.Ranges)]
	m.mu.Unlock()
	if !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role == roleLeader
}

// RangesLed counts ranges this node currently leads.
func (m *Manager) RangesLed() int {
	n := 0
	for _, g := range m.groupList() {
		g.mu.Lock()
		if g.role == roleLeader {
			n++
		}
		g.mu.Unlock()
	}
	return n
}

// --- RPC dispatch ---------------------------------------------------------

// HandleMessage serves one cns.* RPC from the cluster mux.
func (m *Manager) HandleMessage(msgType string, body bson.D) (bson.D, error) {
	rid := int(int64Or(body, "rid", -1))
	if rid < 0 || rid >= m.opts.Ranges {
		return nil, ErrNotReplica
	}
	var peers []string
	if v, ok := body.Get("peers"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, pv := range arr {
				if s, isStr := pv.(string); isStr {
					peers = append(peers, s)
				}
			}
		}
	}
	if len(peers) == 0 {
		return nil, ErrNotReplica
	}
	g, err := m.groupFor(rid, peers)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case MsgVote:
		return g.handleVote(body)
	case MsgAppend:
		return g.handleAppend(body)
	case MsgSnapshot:
		return g.handleSnapshot(body)
	default:
		return nil, ErrNotReplica
	}
}

// --- persistence ----------------------------------------------------------

// persist appends one consensus record to the shared WAL. Durability is the
// caller's business: quorum-relevant records wait via WaitDurable before they
// count.
func (m *Manager) persist(doc bson.D) (wal.LSN, error) {
	// AppendNoWait copies the record into the log's own frame, so one
	// encode buffer serves every group.
	m.encMu.Lock()
	defer m.encMu.Unlock()
	raw, err := bson.AppendTo(m.encBuf[:0], doc)
	if err != nil {
		return 0, err
	}
	m.encBuf = raw
	return m.log.AppendNoWait(raw)
}

// logEnd is the WAL position of the newest record appended by any group.
func (m *Manager) logEnd() wal.LSN {
	return m.log.NextLSN() - 1
}

// syncApplied makes every apply that has returned durable in the local store.
func (m *Manager) syncApplied() error {
	if m.env.SyncApplied == nil {
		return nil
	}
	return m.env.SyncApplied()
}

// replay rebuilds every group from the consensus WAL. Record kinds:
//
//	"p" group creation {rid, peers}
//	"s" hard state {rid, term, vote}
//	"e" log entry {rid, idx, term, rec|noop}
//	"x" truncate-from {rid, from} (conflict suffix removal)
//	"c" compaction marker {rid, snapIdx, snapTerm, term, vote, peers,
//	    maxVer}; the retained tail is re-appended after it, so replay from
//	    the latest "c" alone is complete for that group. A marker written
//	    without maxVer replays it as 0.
//
// Everything replays as a follower; elections start fresh after the first
// election timeout.
func (m *Manager) replay() error {
	return m.log.Replay(0, func(lsn wal.LSN, raw []byte) error {
		doc, err := bson.Unmarshal(raw)
		if err != nil {
			return nil // torn/foreign record: skip, repair handled by wal.Open
		}
		rid := int(int64Or(doc, "rid", -1))
		if rid < 0 {
			return nil
		}
		switch doc.StringOr("t", "") {
		case "p":
			peers := peersFromDoc(doc)
			if len(peers) == 0 {
				return nil
			}
			if _, ok := m.groups[rid]; !ok {
				g := m.newGroup(rid, peers)
				g.compactLSN = lsn
				m.groups[rid] = g
			}
		case "s":
			if g, ok := m.groups[rid]; ok {
				g.term = uint64(int64Or(doc, "term", 0))
				g.votedFor = doc.StringOr("vote", "")
			}
		case "e":
			g, ok := m.groups[rid]
			if !ok {
				return nil
			}
			e, err := entryFromDoc(doc)
			if err != nil {
				return nil
			}
			if e.Index <= g.lastIndex() && e.Index >= g.firstIndex {
				// Overwrite from a later append (conflict resolution midair).
				g.log = g.log[:e.Index-g.firstIndex]
			}
			if e.Index == g.lastIndex()+1 {
				g.log = append(g.log, e)
				if !e.Noop && e.Rec.Ver > g.maxVer {
					g.maxVer = e.Rec.Ver
				}
			}
		case "x":
			if g, ok := m.groups[rid]; ok {
				from := uint64(int64Or(doc, "from", 0))
				if from >= g.firstIndex && from <= g.lastIndex() {
					g.log = g.log[:from-g.firstIndex]
				}
			}
		case "c":
			g, ok := m.groups[rid]
			if !ok {
				peers := peersFromDoc(doc)
				if len(peers) == 0 {
					return nil
				}
				g = m.newGroup(rid, peers)
				m.groups[rid] = g
			}
			g.term = uint64(int64Or(doc, "term", 0))
			g.votedFor = doc.StringOr("vote", "")
			g.snapIdx = uint64(int64Or(doc, "snapIdx", 0))
			g.snapTerm = uint64(int64Or(doc, "snapTerm", 0))
			g.firstIndex = g.snapIdx + 1
			g.markIdx = g.snapIdx
			g.log = nil
			g.maxVer = int64Or(doc, "maxVer", 0)
			g.compactLSN = lsn
		}
		return nil
	})
}

// finishReplay restores derived indexes after replay: the whole surviving
// log is durable (it was just read back from disk), and everything at or
// below the snapshot point is already in the document store.
func (m *Manager) finishReplay() {
	for _, g := range m.groups {
		g.durableIndex = g.lastIndex()
		g.commitIndex = g.snapIdx
		g.appliedIndex = g.snapIdx
	}
}

// truncateWAL drops consensus WAL segments below every group's compaction
// floor. Groups that never compacted floor at their creation record. Nothing
// waited for a marker and the tail re-appended behind it, and the segments
// below hold the only other copy of that tail, of the hard state and of the
// group record — and the log overwrites a dropped segment within seconds. So
// the log is synced through its end first: every marker a floor was read from
// lies, with its tail, below that. Called from the tick loop only.
func (m *Manager) truncateWAL() {
	var min wal.LSN
	first := true
	for _, g := range m.groupList() {
		f := g.walFloor()
		if f == 0 {
			return // a group has no durable floor yet: keep everything
		}
		if first || f < min {
			min, first = f, false
		}
	}
	if first || min <= m.truncatedTo {
		return // nothing new to drop since the last tick
	}
	if m.log.DurableLSN() < m.logEnd() && m.log.Sync() != nil {
		return // the floor is not on disk: keep the segments, try next tick
	}
	if m.log.TruncateBefore(min) == nil {
		m.truncatedTo = min
	}
}

func peersFromDoc(doc bson.D) []string {
	v, ok := doc.Get("peers")
	if !ok {
		return nil
	}
	arr, isArr := v.(bson.A)
	if !isArr {
		return nil
	}
	var peers []string
	for _, pv := range arr {
		if s, isStr := pv.(string); isStr {
			peers = append(peers, s)
		}
	}
	return peers
}

// --- stats / lifecycle ----------------------------------------------------

// Stats is a snapshot of the manager's counters.
type Stats struct {
	RangesLed          int
	Elections          int64
	ElectionsWon       int64
	LeaderChanges      int64
	Proposals          int64
	Commits            int64
	Applies            int64
	NotLeaderRejects   int64
	LeaseExpiries      int64
	StaleTermRejects   int64
	SnapshotsSent      int64
	SnapshotsInstalled int64
	StrongReads        int64
}

func (m *Manager) Stats() Stats {
	return Stats{
		RangesLed:          m.RangesLed(),
		Elections:          m.elections.Load(),
		ElectionsWon:       m.electionsWon.Load(),
		LeaderChanges:      m.leaderChanges.Load(),
		Proposals:          m.proposals.Load(),
		Commits:            m.commits.Load(),
		Applies:            m.applies.Load(),
		NotLeaderRejects:   m.notLeaderRejects.Load(),
		LeaseExpiries:      m.leaseExpiries.Load(),
		StaleTermRejects:   m.staleTermRejects.Load(),
		SnapshotsSent:      m.snapshotsSent.Load(),
		SnapshotsInstalled: m.snapshotsInstalled.Load(),
		StrongReads:        m.strongReads.Load(),
	}
}

// ApplyLag reports how many committed entries of range rid this replica has
// yet to apply to its store (0 when it holds no group for the range).
func (m *Manager) ApplyLag(rid int) uint64 {
	m.mu.Lock()
	g, ok := m.groups[rid]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commitIndex - g.appliedIndex
}

// LogEntries reports how many log entries of range rid this replica holds in
// memory (0 when it holds no group for the range). A follower that stops
// acking shows as a range stuck near maxLogEntries.
func (m *Manager) LogEntries(rid int) int {
	m.mu.Lock()
	g, ok := m.groups[rid]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.log)
}

// WALStats reports the consensus log's commit counters.
func (m *Manager) WALStats() wal.SyncStats { return m.log.Stats() }

// ProposeLatency exposes the propose latency histogram for metrics wiring.
func (m *Manager) ProposeLatency() *metrics.BucketedHistogram { return m.proposeLatency }

// Close shuts the manager down cleanly: stop timers, fail waiters, sync and
// close the WAL.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	for _, g := range m.groupList() {
		g.mu.Lock()
		g.failWaitersLocked()
		g.mu.Unlock()
	}
	m.wg.Wait()
	return m.log.Close()
}

// Kill is the kill -9 teardown: abandon the WAL without syncing so pending
// appends are lost exactly as a crash would lose them.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	for _, g := range m.groupList() {
		g.mu.Lock()
		g.failWaitersLocked()
		g.mu.Unlock()
	}
	m.log.Abandon()
	m.wg.Wait()
}
